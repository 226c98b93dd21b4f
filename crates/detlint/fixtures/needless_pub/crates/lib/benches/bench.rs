fn main() {
    println!("{}", lib::CALLED_FROM_BENCH);
}

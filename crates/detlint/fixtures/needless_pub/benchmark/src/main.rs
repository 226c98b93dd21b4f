fn main() {
    lib::called_from_benchmark();
}

use lib::OnlyInUseStringComment;

// OnlyInUseStringComment is mentioned here in prose only.
fn main() {
    println!("OnlyInUseStringComment");
    lib::called_from_example();
}

#[test]
fn integration() {
    lib::only_under_tests();
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_the_helper() {
        crate::only_in_cfg_test();
    }
}

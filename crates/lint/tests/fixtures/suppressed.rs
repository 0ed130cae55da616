// Fixture: suppression pragmas. Well-formed pragmas with reasons silence
// their target line; malformed or reasonless pragmas are themselves reported.
pub fn own_line_pragma(x: Option<u32>) -> u32 {
    // patu-lint: allow(panic-path) — fixture: the value is seeded two lines up
    x.unwrap()
}

pub fn trailing_pragma(r: Result<u32, u32>) -> u32 {
    r.expect("fixture") // patu-lint: allow(panic-path) — fixture: trailing form
}

pub fn multi_rule_pragma() -> usize {
    // patu-lint: allow(hash-order, panic-path) — fixture: one pragma, two rules
    std::collections::HashMap::<u32, u32>::new().len().checked_add(1).unwrap()
}

pub fn reasonless(x: Option<u32>) -> u32 {
    // patu-lint: allow(panic-path)
    //~^ bad-pragma
    x.unwrap() //~ panic-path
}

pub fn unknown_rule(x: Option<u32>) -> u32 {
    // patu-lint: allow(imaginary-rule) — no such rule id exists
    //~^ bad-pragma
    x.unwrap() //~ panic-path
}

pub fn wrong_rule(x: Option<u32>) -> u32 {
    // patu-lint: allow(hash-order) — fixture: suppresses the wrong rule
    //~^ unused-pragma
    x.unwrap() //~ panic-path
}

//! A panic inside a parallel worker reaches the caller with its own payload:
//! a `catch_unwind` around a parallel operation (the fuzzer's, for one)
//! reports the worker's message, not a generic "worker panicked".
//!
//! `./ci.sh` runs this under 1, 3 and 7 threads (`RAYON_NUM_THREADS`); with
//! one thread the closure runs on the calling thread anyway.

use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast::<&str>().map(|s| s.to_string()).unwrap_or_default(),
    }
}

#[test]
fn a_worker_panic_keeps_its_payload() {
    let items: Vec<usize> = (0..10_000).collect();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        items
            .par_iter()
            .map(|&i| if i == 9_999 { panic!("boom at {i}") } else { i })
            .collect::<Vec<_>>()
    }));
    assert_eq!(message(caught.expect_err("the 9 999th element panics")), "boom at 9999");
}

#[test]
fn a_sort_merge_panic_keeps_its_payload() {
    // 25 000 and 25 001 sit at the two ends of the input, so with two or
    // more threads they land in different chunks; being neighbours in the
    // sorted order, they must be compared, and only a merge round can.
    let mut items: Vec<u64> = std::iter::once(25_000)
        .chain((0..50_000).rev().filter(|v| !(25_000..=25_001).contains(v)))
        .chain(std::iter::once(25_001))
        .collect();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        items.par_sort_unstable_by(|a, b| {
            if a.min(b) == &25_000 && a.max(b) == &25_001 {
                panic!("compared the neighbours");
            }
            a.cmp(b)
        })
    }));
    assert_eq!(message(caught.expect_err("neighbours are compared")), "compared the neighbours");
}

#[test]
fn a_panic_in_joins_second_closure_keeps_its_payload() {
    let caught = catch_unwind(|| rayon::join(|| 1, || -> u32 { panic!("right side") }));
    assert_eq!(message(caught.expect_err("the right closure panics")), "right side");
}

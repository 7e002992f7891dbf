//! The pool shelves only the buffers it allocated itself. A plain `Vec`
//! handed to `give` (what dropping a `Tensor::from_vec` tensor does) has no
//! request waiting for it, so it must be freed instead of growing the
//! resident set.
//!
//! This file holds exactly one test so the process-global pool counters are
//! not perturbed by unrelated tests sharing the binary.

use focus_tensor::{pool, Tensor};

#[test]
fn give_shelves_only_pool_born_buffers() {
    // Sizes in the 2^17 class, which nothing else in this process touches.
    let foreign = vec![1.5f32; 70_000];
    assert!(!foreign.capacity().is_power_of_two(), "test needs a non-pool capacity");
    let before = pool::stats();
    pool::give(foreign);
    drop(Tensor::from_vec(vec![2.5f32; 70_001], &[70_001]));
    let after = pool::stats();
    assert_eq!(after.resident_bytes, before.resident_bytes, "foreign buffers must be freed");
    assert_eq!(after.returned, before.returned, "foreign buffers must not count as returned");

    // Control: a pool-born buffer of the same size is shelved and reused.
    let born = pool::take(70_000);
    let cap_bytes = (born.capacity() * std::mem::size_of::<f32>()) as u64;
    pool::give(born);
    let shelved = pool::stats();
    assert_eq!(shelved.resident_bytes, after.resident_bytes + cap_bytes);
    let again = pool::take(70_000);
    assert_eq!(pool::stats().fresh_allocs, shelved.fresh_allocs, "the shelved buffer is reused");
    pool::give(again);
}

//! What a compaction costs the allocator.
//!
//! The benchmark's `commit_mixed` workload commits one fresh hypothesis
//! at a time onto a store reopened from its mmap segment and compacts
//! every 16 commits. This binary counts every heap allocation, and the
//! bytes asked for, of one such compaction on the same world (400
//! recipes, generator seed `0xF00D`), with a counting global allocator.
//!
//! The segment writer merges what the stores already hold in order: the
//! old segment's dictionary, permutation and runs go out as they are
//! mapped, and only the layers' spills and delta runs are encoded and
//! sorted. The new segment adopts the terms the old stack had decoded.
//! A writer that collects the view's triples, sorts them three times and
//! decodes every term of the old segment to encode it again made, here:
//!
//! | writer              | allocations | bytes     |
//! |---------------------|-------------|-----------|
//! | collect and sort    | 4,241       | 1,777,243 |
//! | merge               | 99          | 261,359   |
//!
//! The pins are 0.1× the allocations and 0.25× the bytes of the old
//! writer. The allocator counts every thread, so this binary holds a
//! single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use feo::core::ecosystem::apply_hypothesis;
use feo::core::{EngineBase, Hypothesis};
use feo::foodkg::{synthetic, Season, SyntheticConfig, SystemContext, UserProfile};
use feo::rdf::GraphView;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The collect-and-sort writer's allocations for this compaction.
const OLD_ALLOCATIONS: usize = 4_241;
/// The bytes those allocations asked for.
const OLD_BYTES: usize = 1_777_243;

/// Layers on the chain when `commit_mixed` compacts.
const COMPACT_EVERY: u64 = 16;

#[test]
fn a_compaction_allocates_in_proportion_to_the_delta() {
    let kg = synthetic(&SyntheticConfig {
        recipes: 400,
        ingredients: 225,
        seed: 0xF00D,
        ..Default::default()
    });
    let user = UserProfile::new("u")
        .likes(&[&kg.recipes[0].id])
        .allergies(&[&kg.ingredients[0].id]);
    let ctx = SystemContext::new(Season::Autumn);
    let dir =
        std::env::temp_dir().join(format!("feo-compaction-allocations-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut built = EngineBase::new(kg.clone(), user.clone(), ctx.clone())
        .expect("synthetic world is consistent");
    built.save_to(&dir).expect("store saves");
    drop(built);
    let mut base = EngineBase::open(&dir, kg, user, ctx).expect("store opens");

    // The benchmark's fresh hypotheses: a new user and a new diet or
    // allergen each, so every delta is non-empty.
    for n in 0..COMPACT_EVERY {
        let user = UserProfile::new(&format!("BenchUser{n}"));
        let hypothesis = if n % 2 == 0 {
            Hypothesis::FollowedDiet(format!("BenchDiet{n}"))
        } else {
            Hypothesis::AllergicTo(format!("BenchIngredient{n}"))
        };
        base.commit_with("bench", |overlay| {
            apply_hypothesis(&hypothesis, &user, overlay);
        });
    }
    assert_eq!(base.head().0, COMPACT_EVERY, "every commit made a layer");
    let triples = base.ledger().head_view().len();

    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    base.compact().expect("store compacts");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!("one compaction: {allocations} allocations, {bytes} bytes");
    assert_eq!(base.head().0, 0, "the chain folded into the base");
    assert_eq!(base.graph().len(), triples, "no triple lost or gained");
    assert!(
        allocations * 10 <= OLD_ALLOCATIONS,
        "{allocations} allocations, over 0.1 × {OLD_ALLOCATIONS}"
    );
    assert!(
        bytes * 4 <= OLD_BYTES,
        "{bytes} bytes, over 0.25 × {OLD_BYTES}"
    );
}

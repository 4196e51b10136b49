//! What a SELECT row costs the allocator.
//!
//! The benchmark's `query_scan` workload runs five query shapes
//! (`qset5`) through `Session::query` on a base saved to a store and
//! reopened from its mmap segment. This binary counts every heap
//! allocation one pass of those five texts makes, with a counting global
//! allocator, on the same world (400 recipes, generator seed `0xF00D`).
//!
//! A result row is one allocation: its `Vec` of cells. The cells are
//! reference-counted terms that share the dictionary's strings, the
//! evaluator's solution sets are flat slabs and GROUP BY folds each
//! aggregate into a per-group accumulator. Per query, with owned `String`
//! cells and a `Vec` per intermediate row, and now:
//!
//! | query              | rows  | owned cells | shared cells, slabs |
//! |--------------------|-------|-------------|---------------------|
//! | `join2`            |   400 |  3,712      |   516               |
//! | `type_scan`        | 1,465 |  5,933      | 1,542               |
//! | `group_count`      |    20 |  7,357      |   761               |
//! | `chain_filter`     | 1,161 | 12,100      | 1,338               |
//! | `optional_unbound` |   118 |  4,814      |   689               |
//! | total              | 3,164 | 33,916      | 4,846               |
//!
//! The pin is 0.4× the old total; the floor is the row count, one
//! allocation per row. The allocator counts every thread, so this binary
//! holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use feo::core::EngineBase;
use feo::foodkg::{synthetic, Season, SyntheticConfig, SystemContext, UserProfile};
use feo::ontology::ns::sparql_prologue;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The old design's allocations for one pass.
const OLD_TOTAL: usize = 33_916;
/// The pass's result rows.
const ROWS: usize = 3_164;

/// The five `qset5` texts, as the benchmark spells them.
fn qset5() -> Vec<(&'static str, String)> {
    let q = |body: &str| format!("{}{body}", sparql_prologue());
    vec![
        (
            "join2",
            q("SELECT ?r ?c ?t WHERE { ?r food:calories ?c . ?r food:priceTier ?t }"),
        ),
        ("type_scan", q("SELECT ?s ?c WHERE { ?s a ?c }")),
        (
            "group_count",
            q(
                "SELECT ?i (COUNT(?r) AS ?n) WHERE { ?r food:hasIngredient ?i } \
               GROUP BY ?i ORDER BY DESC(?n) ?i LIMIT 20",
            ),
        ),
        (
            "chain_filter",
            q(
                "SELECT ?r ?i ?n WHERE { ?r food:calories ?c . ?r food:hasIngredient ?i . \
               ?i food:hasNutrient ?n . FILTER (?c < 400) }",
            ),
        ),
        (
            "optional_unbound",
            q("SELECT DISTINCT ?i WHERE { ?r food:hasIngredient ?i . \
               OPTIONAL { ?i food:availableInSeason ?s } FILTER (!BOUND(?s)) }"),
        ),
    ]
}

#[test]
fn a_qset5_pass_allocates_about_one_block_per_row() {
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
    let dir = std::env::temp_dir().join(format!("feo-row-allocations-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut built = EngineBase::new(kg.clone(), user.clone(), ctx.clone())
        .expect("synthetic world is consistent");
    built.save_to(&dir).expect("store saves");
    drop(built);
    let base = EngineBase::open(&dir, kg, user, ctx).expect("store opens");

    let texts = qset5();
    let run = |text: &str| {
        (base.session().query(text))
            .expect("qset5 query runs")
            .expect_solutions()
            .len()
    };
    // A warm-up pass: the ad-hoc text memo, the segment's term cache and
    // the first use of each lazily built structure are not per-query work.
    for (_, text) in &texts {
        run(text);
    }
    // Per query: its name, rows and allocations.
    let mut counts = Vec::new();
    for (name, text) in &texts {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let rows = run(text);
        counts.push((*name, rows, ALLOCATIONS.load(Ordering::Relaxed) - before));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let rows: usize = counts.iter().map(|(_, rows, _)| rows).sum();
    let total: usize = counts.iter().map(|(.., n)| n).sum();
    eprintln!("rows and allocations per query: {counts:?}, total {total}");
    assert_eq!(rows, ROWS, "the pass returns the benchmark's rows");
    assert!(
        total * 10 <= OLD_TOTAL * 4,
        "one qset5 pass makes {total} allocations ({counts:?}), over 0.4 × {OLD_TOTAL}"
    );
    assert!(total >= ROWS, "every row is at least its own allocation");
}

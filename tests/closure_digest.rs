//! The closure `Reasoner::materialize` derives, pinned on the worlds the
//! system answers questions over, before any change to how it is
//! derived.
//!
//! `closure_oracle` compares the engine with a naive fixpoint on worlds
//! of at most 30 recipes; the naive fixpoint is too slow for more. Here
//! each world's closure is pinned as its size, an order-independent
//! digest of its N-Triples lines and its `inconsistencies` in reported
//! order, on three worlds:
//!
//! - the curated KG, with a user, a hypothesis and a question asserted
//!   for each of `closure_oracle`'s seeds;
//! - the benchmark's gated world: 400 recipes over 225 ingredients
//!   (`SyntheticConfig` seed `0xF00D`), a user who likes the first
//!   recipe and is allergic to the first ingredient, Autumn;
//! - the same at 2000 recipes, the benchmark's scale point.
//!
//! The pins were taken from the reasoner before it was compiled to one
//! rule program; a closure that derives a different set, or reports a
//! different inconsistency list, fails here.

use feo::core::ecosystem::{apply_hypothesis, assemble, assert_question};
use feo::core::knowledge::records_to_rdf;
use feo::core::{Hypothesis, Question};
use feo::foodkg::{
    curated, random_profiles, synthetic, FoodKg, Season, SyntheticConfig, SystemContext,
    UserProfile,
};
use feo::owl::{MaterializeOptions, Reasoner};
use feo::rdf::ntriples::write_ntriples;
use feo::rdf::Graph;

/// FNV-1a, 64-bit: a hash that is the same on every run and host.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Closes `g` and returns its size, the wrapping sum of its lines'
/// hashes (independent of order) and its inconsistencies as reported.
fn closure_digest(mut g: Graph) -> (usize, u64, Vec<String>) {
    let reasoner = Reasoner::new();
    let rules = reasoner.compile(&mut g);
    let result = reasoner
        .materialize(&mut g, &MaterializeOptions::with_rules(&rules))
        .expect("unguarded closure cannot trip");
    assert!(result.converged);
    let digest = write_ntriples(&g)
        .lines()
        .fold(0u64, |sum, line| sum.wrapping_add(fnv1a(line.as_bytes())));
    let inconsistencies = (result.inconsistencies.iter())
        .map(|i| format!("{:?}: {}", i.kind, i.detail))
        .collect();
    (g.len(), digest, inconsistencies)
}

/// `closure_oracle`'s curated world for `seed`.
fn curated_world(kg: &FoodKg, seed: u64) -> Graph {
    let user = random_profiles(kg, 1, seed)
        .pop()
        .unwrap_or_else(|| UserProfile::new("u"));
    let mut g = assemble(kg, &user, &SystemContext::new(Season::Autumn));
    let hypothesis = match seed % 3 {
        0 => Hypothesis::Pregnant,
        1 => Hypothesis::FollowedDiet("Vegan".into()),
        _ => Hypothesis::AllergicTo("Broccoli".into()),
    };
    apply_hypothesis(&hypothesis, &user, &mut g);
    let food = kg.recipes[seed as usize % kg.recipes.len()].id.clone();
    assert_question(&Question::WhyEat { food }, &mut g);
    g
}

/// The benchmark's world at `recipes` recipes, as its engine base
/// assembles it.
fn benchmark_world(recipes: usize) -> Graph {
    let kg = synthetic(&SyntheticConfig {
        recipes,
        ingredients: recipes / 2 + 25,
        seed: 0xF00D,
        ..Default::default()
    });
    let user = UserProfile::new("u")
        .likes(&[&kg.recipes[0].id])
        .allergies(&[&kg.ingredients[0].id]);
    let mut g = assemble(&kg, &user, &SystemContext::new(Season::Autumn));
    records_to_rdf(&mut g);
    g
}

#[test]
fn curated_closures_are_pinned() {
    let kg = curated();
    let got: Vec<(usize, u64, Vec<String>)> = (0..6)
        .map(|seed| closure_digest(curated_world(&kg, seed)))
        .collect();
    let want: Vec<(usize, u64, Vec<String>)> = CURATED
        .iter()
        .map(|&(len, digest, found)| (len, digest, found.iter().map(|s| s.to_string()).collect()))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn world400_closure_is_pinned() {
    let (len, digest, found) = closure_digest(benchmark_world(400));
    assert_eq!((len, digest, found), (WORLD400.0, WORLD400.1, Vec::new()));
}

#[test]
fn world2000_closure_is_pinned() {
    let (len, digest, found) = closure_digest(benchmark_world(2000));
    assert_eq!((len, digest, found), (WORLD2000.0, WORLD2000.1, Vec::new()));
}

const CURATED: [(usize, u64, &[&str]); 6] = [
    (3386, 7529626820030075920, &[]),
    (3364, 366036975390240457, &[]),
    (3401, 16843578715852725906, &[]),
    (3350, 6834957172440958731, &[]),
    (3382, 17400103164919454924, &[]),
    (3370, 9661093300903725533, &[]),
];
const WORLD400: (usize, u64) = (34319, 17178164067885578521);
const WORLD2000: (usize, u64) = (166153, 3592126784248925563);

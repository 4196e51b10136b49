//! Integration tests for the `feo` CLI binary.

use std::process::Command;

fn feo(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_feo"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn recommend_ranks_and_reports_eliminations() {
    let (stdout, _, ok) = feo(&[
        "recommend",
        "--allergies",
        "Broccoli",
        "--diet",
        "Vegetarian",
        "--top",
        "5",
    ]);
    assert!(ok);
    assert!(stdout.contains("Recommendations"));
    assert!(stdout.contains("Eliminated by hard constraints"));
    assert!(
        !stdout.contains("BroccoliCheddarSoup\n"),
        "allergen dish not ranked"
    );
    assert!(stdout.contains("allergen Broccoli"));
}

#[test]
fn explain_why_over_reproduces_cq2() {
    let (stdout, _, ok) = feo(&[
        "explain",
        "why-over",
        "ButternutSquashSoup",
        "BroccoliCheddarSoup",
        "--likes",
        "BroccoliCheddarSoup",
        "--allergies",
        "Broccoli",
    ]);
    assert!(ok);
    assert!(stdout.contains("SeasonCharacteristic"));
    assert!(stdout.contains("AllergicFoodCharacteristic"));
    assert!(stdout.contains("allergic to Broccoli"));
}

#[test]
fn explain_what_if_pregnant() {
    let (stdout, _, ok) = feo(&["explain", "what-if-pregnant", "--likes", "Sushi"]);
    assert!(ok);
    assert!(stdout.contains("forbidden from eating Sushi"));
    assert!(stdout.contains("Spinach Frittata"));
}

#[test]
fn proof_renders_rule_chain() {
    let (stdout, _, ok) = feo(&[
        "proof",
        "Broccoli",
        "foil",
        "--likes",
        "BroccoliCheddarSoup",
        "--allergies",
        "Broccoli",
    ]);
    assert!(ok);
    assert!(stdout.contains("[cls]"));
    assert!(stdout.contains("[asserted]"));
    assert!(stdout.contains("prp-spo2"), "chain rule appears: {stdout}");
}

#[test]
fn query_runs_sparql_with_default_prefixes() {
    let (stdout, _, ok) = feo(&[
        "query",
        "SELECT (COUNT(?r) AS ?n) WHERE { ?r a food:Recipe }",
    ]);
    assert!(ok);
    assert!(stdout.contains("32"), "32 curated recipes: {stdout}");
}

#[test]
fn export_produces_parseable_turtle() {
    let (stdout, _, ok) = feo(&["export", "--raw"]);
    assert!(ok);
    let mut g = feo::rdf::Graph::new();
    feo::rdf::turtle::parse_turtle_into(&stdout, &mut g, &Default::default())
        .expect("export parses");
    assert!(g.len() > 500);
}

#[test]
fn list_shows_inventory() {
    let (stdout, _, ok) = feo(&["list"]);
    assert!(ok);
    assert!(stdout.contains("ButternutSquashSoup"));
    assert!(stdout.contains("Vegetarian"));
    assert!(stdout.contains("HighProteinGoal"));
}

#[test]
fn history_prints_the_epoch_chain() {
    let (stdout, _, ok) = feo(&["history", "--commit", "pregnant", "--commit", "diet:Vegan"]);
    assert!(ok);
    assert!(stdout.contains("Epoch ledger (2 commits)"), "{stdout}");
    assert!(stdout.contains("#0"), "base row: {stdout}");
    assert!(stdout.contains("pregnant"), "commit label: {stdout}");
    assert!(stdout.contains("diet:Vegan"), "commit label: {stdout}");
    assert!(stdout.contains("chain OK"), "hash chain verifies: {stdout}");
}

#[test]
fn query_as_of_travels_to_an_old_epoch() {
    // Epoch 0 predates the pregnancy commit, so the count of pregnancy
    // characteristics is strictly smaller there than at epoch 1, where
    // the commit asserted one on the user.
    let q = "SELECT (COUNT(?u) AS ?n) WHERE { ?u feo:hasCharacteristic feo:Pregnancy }";
    let count = |stdout: &str| -> usize {
        stdout
            .split('|')
            .filter_map(|cell| cell.trim().parse().ok())
            .next()
            .unwrap_or_else(|| panic!("no count in: {stdout}"))
    };
    let (at0, _, ok0) = feo(&["query", q, "--as-of", "0", "--commit", "pregnant"]);
    let (at1, _, ok1) = feo(&["query", q, "--as-of", "1", "--commit", "pregnant"]);
    assert!(ok0 && ok1);
    assert_eq!(
        count(&at0) + 1,
        count(&at1),
        "the commit adds exactly the user's pregnancy: {at0} vs {at1}"
    );

    // Past the head is a clean error, not a panic.
    let (_, stderr, ok) = feo(&["query", q, "--as-of", "9", "--commit", "pregnant"]);
    assert!(!ok);
    assert!(stderr.contains("epoch"), "{stderr}");
}

#[test]
fn explain_as_of_reproduces_the_old_answer() {
    let args_tail = [
        "--likes",
        "ButternutSquashSoup",
        "--commit",
        "allergic:Broccoli",
    ];
    let mut at1 = vec!["explain", "why-eat", "ButternutSquashSoup", "--as-of", "1"];
    at1.extend_from_slice(&args_tail);
    let (stdout, _, ok) = feo(&at1);
    assert!(ok);
    assert!(stdout.contains("as of epoch 1"), "{stdout}");
    assert!(stdout.contains("SeasonCharacteristic"), "{stdout}");
    assert!(stdout.contains("A: "), "{stdout}");
}

#[test]
fn branch_create_diff_and_list() {
    let (stdout, _, ok) = feo(&[
        "branch", "create", "trial", "--from", "0", "--apply", "pregnant",
    ]);
    assert!(ok);
    assert!(
        stdout.contains("branch 'trial' forked at epoch 0"),
        "{stdout}"
    );
    assert!(stdout.contains("diverges from main by +3"), "{stdout}");

    let (stdout, _, ok) = feo(&[
        "branch",
        "diff",
        "whatif",
        "main",
        "--branch",
        "whatif=pregnant",
    ]);
    assert!(ok);
    assert!(stdout.contains("only in 'whatif' (3)"), "{stdout}");
    assert!(stdout.contains("Pregnancy"), "{stdout}");
    assert!(stdout.contains("only in 'main' (0)"), "{stdout}");

    let (stdout, _, ok) = feo(&[
        "branch",
        "list",
        "--commit",
        "allergic:Broccoli",
        "--branch",
        "whatif=pregnant",
    ]);
    assert!(ok);
    assert!(stdout.contains("main: head 1"), "{stdout}");
    assert!(stdout.contains("whatif"), "{stdout}");
    assert!(stdout.contains("fork #1"), "{stdout}");

    // Reserved and unknown names fail cleanly.
    let (_, stderr, ok) = feo(&["branch", "create", "main"]);
    assert!(!ok);
    assert!(!stderr.is_empty());
    let (_, stderr, ok) = feo(&["branch", "diff", "ghost", "main"]);
    assert!(!ok);
    assert!(stderr.contains("ghost"), "{stderr}");
}

#[test]
fn bad_input_fails_cleanly() {
    let (_, stderr, ok) = feo(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (_, stderr, ok) = feo(&["explain", "why-eat"]);
    assert!(!ok);
    assert!(stderr.contains("needs a food id"));
    let (_, stderr, ok) = feo(&["query", "SELECT WHERE"]);
    assert!(!ok);
    assert!(!stderr.is_empty());
}

#[test]
fn query_explain_prints_the_plan_tree() {
    let cq1 = feo::core::queries::contextual_query(&feo::core::Question::WhyEat {
        food: "CauliflowerPotatoCurry".into(),
    });
    let (stdout, stderr, ok) = feo(&["query", "--explain", &cq1]);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("plan\n"), "{stdout}");
    assert!(stdout.lines().any(|l| l.trim() == "bgp"), "{stdout}");
    assert!(stdout.contains("  1. ?question "), "bgp steps: {stdout}");
}

/// `--explain` prints the plan of the epoch view the query would run
/// over, at an old epoch as at the head.
#[test]
fn query_explain_prints_the_plan_at_an_old_epoch() {
    let cq1 = feo::core::queries::contextual_query(&feo::core::Question::WhyEat {
        food: "CauliflowerPotatoCurry".into(),
    });
    let (stdout, stderr, ok) = feo(&["query", "--explain", &cq1, "--as-of", "0"]);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("plan\n"), "{stdout}");
}

/// Every query runs over the engine's epoch view, which holds the
/// knowledge records, so naming the head epoch changes nothing.
#[test]
fn query_sees_the_same_graph_with_and_without_as_of() {
    let q = "SELECT (COUNT(?r) AS ?n) WHERE { ?r a feo:EverydayKnowledgeRecord }";
    let (head, _, ok_head) = feo(&["query", q]);
    let (at0, _, ok0) = feo(&["query", q, "--as-of", "0"]);
    assert!(ok_head && ok0);
    assert_eq!(head, at0);
    assert!(
        !head.contains("| 0 "),
        "the records are in the graph: {head}"
    );
}

#[test]
fn planner_flag_is_unknown() {
    let out = Command::new(env!("CARGO_BIN_EXE_feo"))
        .args(["query", "--planner", "greedy", "ASK { ?s ?p ?o }"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag '--planner'"), "{stderr}");
}

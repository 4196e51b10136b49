//! `feo` — command-line interface to the FEO explanation stack.
//!
//! ```text
//! feo recommend [profile flags]                 rank recipes for a profile
//! feo explain why-eat <Food> [flags]            contextual explanation
//! feo explain why-over <A> <B> [flags]          contrastive explanation
//! feo explain what-if-pregnant [flags]          counterfactual explanation
//! feo explain steps <Food> [flags]              trace-based explanation
//! feo proof <Individual> <fact|foil> [flags]    reasoner proof tree
//! feo query <SPARQL> [--explain]               query the materialized graph
//! feo history [--commit S ...]                  show the epoch ledger chain
//! feo branch create|diff|list ...               named what-if branch worlds
//! feo export [--raw]                            dump the graph as Turtle
//! feo list                                      list recipes and ingredients
//! feo serve [--port N] [serve flags]            run the HTTP explanation service
//! feo compact --store <dir>                     fold the store's WAL into a new segment
//!
//! profile flags:
//!   --likes A,B   --dislikes A,B   --allergies A,B   --diet D
//!   --goals G1,G2 --region R       --season spring|summer|autumn|winter
//!   --pregnant    --top N          --json (machine-readable output)
//!
//! ledger flags (the CLI is stateless, so each invocation builds its
//! chain from hypothesis specs S = pregnant | diet:<D> | allergic:<I>):
//!   --commit S       commit S as an epoch on the main chain (repeatable)
//!   --as-of N        answer `query`/`explain` at epoch N instead of head
//!   --branch name=S  fork a branch at head and apply S (repeatable)
//!   --from N         fork epoch for `branch create`
//!   --apply S        hypothesis applied by `branch create` (repeatable)
//!
//! store flags (persistent dictionary-encoded store, `feo-rdf::disk`):
//!   --store <dir>    open the engine from <dir> (memory-mapped, no
//!                    re-materialization); first use writes the store.
//!                    `--commit` epochs append to its WAL.
//! ```

use std::process::exit;

use feo::core::ecosystem::{apply_hypothesis, assemble};
use feo::prelude::*;
use feo::recommender::{HealthCoach, Recommender};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage_and_exit();
    };
    let rest = &args[1..];
    match command.as_str() {
        "recommend" => cmd_recommend(rest),
        "explain" => cmd_explain(rest),
        "proof" => cmd_proof(rest),
        "query" => cmd_query(rest),
        "history" => cmd_history(rest),
        "branch" => cmd_branch(rest),
        "export" => cmd_export(rest),
        "list" => cmd_list(),
        "serve" => cmd_serve(rest),
        "compact" => cmd_compact(rest),
        "help" | "--help" | "-h" => usage_and_exit(),
        other => {
            eprintln!("unknown command '{other}'");
            usage_and_exit();
        }
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "feo — Food Explanation Ontology CLI\n\
         \n\
         USAGE:\n\
           feo recommend [profile flags]\n\
           feo explain why-eat <Food> [profile flags] [--as-of N] [--commit S]\n\
           feo explain why-over <FoodA> <FoodB> [profile flags]\n\
           feo explain what-if-pregnant [profile flags]\n\
           feo explain steps <Food> [profile flags]\n\
           feo proof <Individual> <fact|foil> [profile flags]\n\
           feo query <SPARQL string> [--explain] [--as-of N] [--commit S]\n\
           feo history [--commit S] [profile flags]\n\
           feo branch create <name> [--from N] [--apply S] [--commit S]\n\
           feo branch diff <a> <b> [--branch name=S] [--commit S]\n\
           feo branch list [--branch name=S] [--commit S]\n\
           feo export [--raw] [profile flags]\n\
           feo list\n\
           feo serve [--port N | --addr H:P] [--max-inflight N] [--max-queue N]\n\
                     [--tenant-rate R --tenant-burst B] [--deadline-ms N]\n\
                     [--max-deadline-ms N] [--drain-ms N] [--threads off|auto|N]\n\
                     [profile + ledger flags]\n\
                     (--threads: workers one /explain batch fans its questions\n\
                     across; a single question or query runs on one thread)\n\
           feo compact --store <dir>\n\
         \n\
         PROFILE FLAGS:\n\
           --likes A,B --dislikes A,B --allergies A,B --diet D --goals G,H\n\
           --region R --season spring|summer|autumn|winter --pregnant --top N\n\
           --json (emit machine-readable JSON from explain/query/history)\n\
         \n\
         LEDGER FLAGS (hypothesis spec S = pregnant | diet:<D> | allergic:<I>):\n\
           --commit S committed as an epoch on the main chain (repeatable);\n\
           --as-of N answers at epoch N; --branch name=S forks a branch at\n\
           head and applies S; `branch diff` accepts branch names or 'main'.\n\
         \n\
         STORE FLAGS:\n\
           --store <dir> opens `query`/`explain`/`history`/`serve` from a\n\
           persistent dictionary-encoded store (memory-mapped segment +\n\
           WAL; written on first use, no re-materialization afterwards).\n\
           `feo compact --store <dir>` folds the WAL into a new segment.\n\
         \n\
         Identifiers are CamelCase local names from `feo list`\n\
         (e.g. ButternutSquashSoup, Broccoli, Vegetarian, HighFiberGoal)."
    );
    exit(2);
}

/// Parses a hypothesis spec: `pregnant`, `diet:<Diet>`, `allergic:<Ingredient>`.
fn parse_hypothesis(spec: &str) -> Hypothesis {
    if spec.eq_ignore_ascii_case("pregnant") {
        return Hypothesis::Pregnant;
    }
    if let Some(d) = spec.strip_prefix("diet:") {
        return Hypothesis::FollowedDiet(d.to_string());
    }
    if let Some(i) = spec.strip_prefix("allergic:") {
        return Hypothesis::AllergicTo(i.to_string());
    }
    eprintln!("bad hypothesis spec '{spec}' (pregnant | diet:<D> | allergic:<I>)");
    exit(2);
}

/// Parsed profile flags shared by all commands.
struct Opts {
    user: UserProfile,
    ctx: SystemContext,
    top: usize,
    raw: bool,
    json: bool,
    explain: bool,
    positional: Vec<String>,
    as_of: Option<u64>,
    commits: Vec<(String, Hypothesis)>,
    branches: Vec<(String, Hypothesis)>,
    from: Option<u64>,
    apply: Vec<(String, Hypothesis)>,
    store: Option<std::path::PathBuf>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut user = UserProfile::new("cli-user");
    let mut season = Season::Autumn;
    let mut region: Option<String> = None;
    let mut top = 10usize;
    let mut raw = false;
    let mut json = false;
    let mut explain = false;
    let mut as_of: Option<u64> = None;
    let mut commits: Vec<(String, Hypothesis)> = Vec::new();
    let mut branches: Vec<(String, Hypothesis)> = Vec::new();
    let mut from: Option<u64> = None;
    let mut apply: Vec<(String, Hypothesis)> = Vec::new();
    let mut store: Option<std::path::PathBuf> = None;
    let mut positional = Vec::new();
    let mut i = 0;
    let list = |v: &str| -> Vec<String> {
        v.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    };
    while i < args.len() {
        let arg = &args[i];
        let mut value = |name: &str| -> String {
            i += 1;
            args.get(i)
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a value");
                    exit(2);
                })
                .clone()
        };
        match arg.as_str() {
            "--likes" => user.likes = list(&value("--likes")),
            "--dislikes" => user.dislikes = list(&value("--dislikes")),
            "--allergies" => user.allergies = list(&value("--allergies")),
            "--diet" => user.diet = Some(value("--diet")),
            "--goals" => user.goals = list(&value("--goals")),
            "--region" => region = Some(value("--region")),
            "--season" => {
                season = match value("--season").to_ascii_lowercase().as_str() {
                    "spring" => Season::Spring,
                    "summer" => Season::Summer,
                    "autumn" | "fall" => Season::Autumn,
                    "winter" => Season::Winter,
                    other => {
                        eprintln!("unknown season '{other}'");
                        exit(2);
                    }
                }
            }
            "--pregnant" => user.pregnant = true,
            "--top" => {
                top = value("--top").parse().unwrap_or_else(|_| {
                    eprintln!("--top needs an integer");
                    exit(2);
                })
            }
            "--raw" => raw = true,
            "--json" => json = true,
            "--explain" => explain = true,
            "--as-of" => {
                as_of = Some(value("--as-of").parse().unwrap_or_else(|_| {
                    eprintln!("--as-of needs an epoch number");
                    exit(2);
                }))
            }
            "--commit" => {
                let spec = value("--commit");
                commits.push((spec.clone(), parse_hypothesis(&spec)));
            }
            "--apply" => {
                let spec = value("--apply");
                apply.push((spec.clone(), parse_hypothesis(&spec)));
            }
            "--from" => {
                from = Some(value("--from").parse().unwrap_or_else(|_| {
                    eprintln!("--from needs an epoch number");
                    exit(2);
                }))
            }
            "--store" => store = Some(std::path::PathBuf::from(value("--store"))),
            "--branch" => {
                let v = value("--branch");
                let Some((name, spec)) = v.split_once('=') else {
                    eprintln!("--branch needs name=<hypothesis spec>");
                    exit(2);
                };
                branches.push((name.to_string(), parse_hypothesis(spec)));
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag '{other}'");
                exit(2);
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    if let Some(r) = &region {
        user.region = Some(r.clone());
    }
    let mut ctx = SystemContext::new(season);
    if let Some(r) = region {
        ctx = ctx.region(&r);
    }
    Opts {
        user,
        ctx,
        top,
        raw,
        json,
        explain,
        positional,
        as_of,
        commits,
        branches,
        from,
        apply,
        store,
    }
}

/// Builds an `EngineBase` over the curated KG and commits each
/// `--commit` hypothesis as one epoch on the main chain, then forks
/// each `--branch name=spec` at the head and applies its hypothesis.
///
/// With `--store <dir>`: an existing store is opened (memory-mapped
/// segment + WAL replay — assembly and materialization are skipped);
/// a missing one is bootstrapped by building the engine and saving it.
/// Either way the store stays attached, so `--commit` epochs append to
/// its WAL and survive into the next invocation.
fn base_with_chain(opts: &Opts) -> EngineBase {
    let mut base = match &opts.store {
        Some(dir) if dir.join("MANIFEST").exists() => {
            EngineBase::open(dir, curated(), opts.user.clone(), opts.ctx.clone()).unwrap_or_else(
                |e| {
                    eprintln!("failed to open store {}: {e}", dir.display());
                    exit(1);
                },
            )
        }
        maybe_dir => {
            let mut base = EngineBase::new(curated(), opts.user.clone(), opts.ctx.clone())
                .unwrap_or_else(|e| {
                    eprintln!("failed to build engine: {e}");
                    exit(1);
                });
            if let Some(dir) = maybe_dir {
                if let Err(e) = base.save_to(dir) {
                    eprintln!("failed to write store {}: {e}", dir.display());
                    exit(1);
                }
            }
            base
        }
    };
    for (spec, hypothesis) in &opts.commits {
        let user = opts.user.clone();
        base.commit_with(spec, |overlay| apply_hypothesis(hypothesis, &user, overlay));
    }
    for (name, hypothesis) in &opts.branches {
        let head = base.head();
        let created = base.branch_create(name, head);
        let applied = created.and_then(|_| base.branch_apply(name, hypothesis));
        if let Err(e) = applied {
            eprintln!("branch '{name}': {e}");
            exit(1);
        }
    }
    base
}

fn engine_for(opts: &Opts, proofs: bool) -> ExplanationEngine {
    let result = if proofs {
        ExplanationEngine::new_with_proofs(curated(), opts.user.clone(), opts.ctx.clone())
    } else {
        ExplanationEngine::new(curated(), opts.user.clone(), opts.ctx.clone())
    };
    result.unwrap_or_else(|e| {
        eprintln!("failed to build engine: {e}");
        exit(1);
    })
}

fn cmd_recommend(args: &[String]) {
    let opts = parse_opts(args);
    let kg = curated();
    let coach = HealthCoach::new(&kg);
    let set = coach.recommend(&opts.user, &opts.ctx, opts.top);
    println!("Recommendations ({}):", opts.ctx.season.name());
    for (i, r) in set.recommendations.iter().enumerate() {
        println!("  {:>2}. {:<28} score {:.2}", i + 1, r.recipe_id, r.score);
    }
    if !set.eliminated.is_empty() {
        println!("\nEliminated by hard constraints:");
        for step in &set.eliminated {
            println!("  - {step}");
        }
    }
}

fn cmd_explain(args: &[String]) {
    let Some(kind) = args.first().cloned() else {
        eprintln!("explain needs a subcommand (why-eat | why-over | what-if-pregnant | steps)");
        exit(2);
    };
    let opts = parse_opts(&args[1..]);
    let question = match kind.as_str() {
        "why-eat" => Question::WhyEat {
            food: opts.positional.first().cloned().unwrap_or_else(|| {
                eprintln!("why-eat needs a food id");
                exit(2);
            }),
        },
        "why-over" => {
            if opts.positional.len() < 2 {
                eprintln!("why-over needs two food ids");
                exit(2);
            }
            Question::WhyEatOver {
                preferred: opts.positional[0].clone(),
                alternative: opts.positional[1].clone(),
            }
        }
        "what-if-pregnant" => Question::WhatIf {
            hypothesis: Hypothesis::Pregnant,
        },
        "steps" => Question::WhatSteps {
            food: opts.positional.first().cloned().unwrap_or_else(|| {
                eprintln!("steps needs a food id");
                exit(2);
            }),
        },
        other => {
            eprintln!("unknown explain subcommand '{other}'");
            exit(2);
        }
    };
    if opts.as_of.is_some() || opts.store.is_some() {
        // Ledger path: answer over an epoch view of the (possibly
        // store-backed) chain instead of the single-owner façade.
        let mut base = base_with_chain(&opts);
        if matches!(question, Question::WhatSteps { .. }) {
            let kg = curated();
            let coach = HealthCoach::new(&kg);
            base = base.with_recommendations(coach.recommend(&opts.user, &opts.ctx, 50));
        }
        let n = opts.as_of.unwrap_or(base.head().0);
        match base.explain_as_of(EpochId(n), &question, &ExplainOptions::default()) {
            Ok(e) if opts.json => println!("{}", e.to_json()),
            Ok(e) => {
                if opts.as_of.is_some() {
                    println!("Q: {} (as of epoch {n})", question.text());
                } else {
                    println!("Q: {}", question.text());
                }
                if !e.bindings.is_empty() {
                    println!("\n{}", e.bindings);
                }
                println!("A: {}", e.answer);
            }
            Err(err) => {
                eprintln!("cannot explain: {err}");
                exit(1);
            }
        }
        return;
    }
    let mut engine = engine_for(&opts, false);
    if matches!(question, Question::WhatSteps { .. }) {
        let kg = curated();
        let coach = HealthCoach::new(&kg);
        let recs = coach.recommend(&opts.user, &opts.ctx, 50);
        engine = engine.with_recommendations(recs);
    }
    match engine.explain(&question) {
        Ok(e) if opts.json => println!("{}", e.to_json()),
        Ok(e) => {
            println!("Q: {}", question.text());
            if !e.bindings.is_empty() {
                println!("\n{}", e.bindings);
            }
            println!("A: {}", e.answer);
        }
        Err(err) => {
            eprintln!("cannot explain: {err}");
            exit(1);
        }
    }
}

fn cmd_proof(args: &[String]) {
    if args.len() < 2 {
        eprintln!("proof needs <Individual> <fact|foil>");
        exit(2);
    }
    let individual = args[0].clone();
    let class = match args[1].to_ascii_lowercase().as_str() {
        "fact" => feo::ontology::ns::eo::FACT,
        "foil" => feo::ontology::ns::eo::FOIL,
        other => {
            eprintln!("expected 'fact' or 'foil', got '{other}'");
            exit(2);
        }
    };
    let opts = parse_opts(&args[2..]);
    let mut engine = engine_for(&opts, true);
    // A question parameter is needed for fact/foil classification; use the
    // first liked food or a default.
    let param = opts
        .user
        .likes
        .first()
        .cloned()
        .unwrap_or_else(|| "ButternutSquashSoup".to_string());
    let _ = engine.explain(&Question::WhyEat { food: param });
    match engine.proof_of_type(&individual, class) {
        Some(p) => println!("{p}"),
        None => {
            println!(
                "{individual} is not classified as {} under this profile/context.",
                args[1]
            );
        }
    }
}

fn cmd_query(args: &[String]) {
    let opts = parse_opts(args);
    let Some(sparql) = opts.positional.first() else {
        eprintln!("query needs a SPARQL string");
        exit(2);
    };
    // Prepend the standard prefixes so short queries work out of the box.
    let full = format!("{}{}", feo::ontology::ns::sparql_prologue(), sparql);
    if opts.as_of.is_some() || opts.store.is_some() {
        // Ledger path: answer over the epoch view (time travel with
        // --as-of, the store-backed head with --store), not the raw
        // assembled graph.
        let base = base_with_chain(&opts);
        let epoch = EpochId(opts.as_of.unwrap_or(base.head().0));
        let Some(session) = base.at_epoch(epoch) else {
            eprintln!("unknown epoch: {} is past the ledger head", epoch.0);
            exit(1);
        };
        match session.query(&full) {
            Ok(result) => print_query_result(result, opts.json),
            Err(e) => {
                eprintln!("{e}");
                exit(1);
            }
        }
        return;
    }
    let mut g = assemble(&curated(), &opts.user, &opts.ctx);
    let _ = Reasoner::new().materialize(&mut g, &Default::default());
    let qopts = QueryOptions {
        explain: opts.explain,
        ..Default::default()
    };
    match feo::sparql::query(&g, &full, &qopts) {
        Ok(result) => print_query_result(result, opts.json),
        Err(e) => {
            eprintln!("{e}");
            exit(1);
        }
    }
}

fn print_query_result(result: QueryResult, json: bool) {
    if json {
        // W3C SPARQL 1.1 Query Results JSON Format for SELECT/ASK;
        // Turtle-in-JSON for CONSTRUCT/DESCRIBE; plan text for --explain.
        println!("{}", result.to_json());
        return;
    }
    match result {
        QueryResult::Solutions(t) => print!("{t}"),
        QueryResult::Boolean(b) => println!("{b}"),
        QueryResult::Graph(g2) => {
            print!(
                "{}",
                feo::rdf::turtle::write_turtle(&g2, feo::ontology::ns::PREFIXES)
            )
        }
        QueryResult::Plan(p) => print!("{p}"),
    }
}

/// `feo history` — print the epoch ledger: one row per commit with its
/// label, layer sizes, and chained tamper-evidence hash.
fn cmd_history(args: &[String]) {
    let opts = parse_opts(args);
    let base = base_with_chain(&opts);
    if opts.json {
        let rows: Vec<String> = base.history().iter().map(|row| row.to_json()).collect();
        let chain_ok = base.ledger().verify_chain().is_none();
        println!(
            "{{\"head\":{},\"chain_ok\":{},\"commits\":[{}]}}",
            base.head().0,
            chain_ok,
            rows.join(",")
        );
        if !chain_ok {
            exit(1);
        }
        return;
    }
    println!("Epoch ledger ({} commits):", base.head().0);
    for row in base.history() {
        println!(
            "  #{:<3} {:<24} {:>6} triples  {:>5} terms  {:>5} inferred  hash {:016x}",
            row.epoch.0, row.label, row.triples, row.terms, row.inferred, row.hash
        );
    }
    match base.ledger().verify_chain() {
        None => println!("chain OK"),
        Some(epoch) => {
            eprintln!("chain BROKEN at epoch {}", epoch.0);
            exit(1);
        }
    }
}

/// `feo branch create|diff|list` — named what-if worlds forked from the
/// epoch ledger. The CLI is stateless, so each invocation first rebuilds
/// the main chain from `--commit` specs, then forks branches in-process.
fn cmd_branch(args: &[String]) {
    let Some(sub) = args.first().cloned() else {
        eprintln!("branch needs a subcommand (create | diff | list)");
        exit(2);
    };
    let opts = parse_opts(&args[1..]);
    match sub.as_str() {
        "create" => {
            let Some(name) = opts.positional.first().cloned() else {
                eprintln!("branch create needs a name");
                exit(2);
            };
            let mut base = base_with_chain(&opts);
            let from = EpochId(opts.from.unwrap_or(base.head().0));
            if let Err(e) = base.branch_create(&name, from) {
                eprintln!("branch '{name}': {e}");
                exit(1);
            }
            for (spec, hypothesis) in &opts.apply {
                if let Err(e) = base.branch_apply(&name, hypothesis) {
                    eprintln!("branch '{name}' applying {spec}: {e}");
                    exit(1);
                }
            }
            let Some(info) = base.branch_list().into_iter().find(|b| b.name == name) else {
                eprintln!("branch '{name}' vanished after creation");
                exit(1);
            };
            println!(
                "branch '{}' forked at epoch {} with {} commit(s), head {}",
                info.name, info.fork.0, info.commits, info.head.0
            );
            let diff = base.branch_diff(&name, "main").unwrap_or_else(|e| {
                eprintln!("diff vs main: {e}");
                exit(1);
            });
            println!(
                "diverges from main by +{} / -{} triples",
                diff.only_in_a.len(),
                diff.only_in_b.len()
            );
        }
        "diff" => {
            if opts.positional.len() < 2 {
                eprintln!("branch diff needs two names ('main' or --branch names)");
                exit(2);
            }
            let base = base_with_chain(&opts);
            let (a, b) = (&opts.positional[0], &opts.positional[1]);
            match base.branch_diff(a, b) {
                Ok(diff) if diff.is_empty() => println!("branches '{a}' and '{b}' are identical"),
                Ok(diff) => {
                    println!("only in '{a}' ({}):", diff.only_in_a.len());
                    for t in &diff.only_in_a {
                        println!("  + {t}");
                    }
                    println!("only in '{b}' ({}):", diff.only_in_b.len());
                    for t in &diff.only_in_b {
                        println!("  - {t}");
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    exit(1);
                }
            }
        }
        "list" => {
            let base = base_with_chain(&opts);
            let branches = base.branch_list();
            println!(
                "main: head {} ({} commits)",
                base.head().0,
                base.history().len() - 1
            );
            if branches.is_empty() {
                println!("no branches (fork one with --branch name=<spec>)");
            }
            for info in branches {
                let hash = info
                    .head_hash
                    .map(|h| format!("{h:016x}"))
                    .unwrap_or_else(|| "-".to_string());
                println!(
                    "  {:<16} fork #{:<3} +{} commit(s)  head #{:<3} hash {}",
                    info.name, info.fork.0, info.commits, info.head.0, hash
                );
            }
        }
        other => {
            eprintln!("unknown branch subcommand '{other}' (create | diff | list)");
            exit(2);
        }
    }
}

fn cmd_export(args: &[String]) {
    let opts = parse_opts(args);
    let mut g = assemble(&curated(), &opts.user, &opts.ctx);
    if !opts.raw {
        let _ = Reasoner::new().materialize(&mut g, &Default::default());
    }
    print!(
        "{}",
        feo::rdf::turtle::write_turtle(&g, feo::ontology::ns::PREFIXES)
    );
}

/// `feo serve` — run the HTTP explanation service over the engine
/// built from the profile and ledger flags. Serve-specific flags are
/// split off first; everything else (profile, --commit, --branch)
/// feeds `base_with_chain`, so the service can expose committed
/// epochs (`as_of`) and branch worlds (`branch`) to `/query`.
fn cmd_serve(args: &[String]) {
    let mut cfg = ServeConfig::default();
    let mut passthrough: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut value = |name: &str| -> String {
            i += 1;
            args.get(i)
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a value");
                    exit(2);
                })
                .clone()
        };
        let parse_u64 = |name: &str, v: String| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{name} needs an unsigned integer");
                exit(2);
            })
        };
        let parse_f64 = |name: &str, v: String| -> f64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{name} needs a number");
                exit(2);
            })
        };
        match arg {
            "--addr" => cfg.addr = value("--addr"),
            "--port" => cfg.addr = format!("127.0.0.1:{}", parse_u64("--port", value("--port"))),
            "--max-inflight" => {
                cfg.admission.max_inflight =
                    parse_u64("--max-inflight", value("--max-inflight")).max(1) as usize
            }
            "--max-queue" => {
                cfg.admission.max_queue = parse_u64("--max-queue", value("--max-queue")) as usize
            }
            "--tenant-rate" => {
                cfg.admission.tenant_rate = parse_f64("--tenant-rate", value("--tenant-rate"))
            }
            "--tenant-burst" => {
                cfg.admission.tenant_burst = parse_f64("--tenant-burst", value("--tenant-burst"))
            }
            "--deadline-ms" => {
                cfg.default_deadline_ms = parse_u64("--deadline-ms", value("--deadline-ms")).max(1)
            }
            "--max-deadline-ms" => {
                cfg.max_deadline_ms =
                    parse_u64("--max-deadline-ms", value("--max-deadline-ms")).max(1)
            }
            "--drain-ms" => cfg.drain_deadline_ms = parse_u64("--drain-ms", value("--drain-ms")),
            "--queue-wait-ms" => {
                cfg.queue_wait_cap_ms = parse_u64("--queue-wait-ms", value("--queue-wait-ms"))
            }
            "--threads" => {
                cfg.parallelism = match value("--threads").to_ascii_lowercase().as_str() {
                    "off" | "1" => Parallelism::Off,
                    "auto" => Parallelism::Auto,
                    n => match n.parse::<usize>() {
                        Ok(n) if n > 0 => Parallelism::Fixed(n),
                        _ => {
                            eprintln!("--threads needs a positive integer, 'off', or 'auto'");
                            exit(2);
                        }
                    },
                }
            }
            other => passthrough.push(other.to_string()),
        }
        i += 1;
    }
    let opts = parse_opts(&passthrough);
    let base = std::sync::Arc::new(base_with_chain(&opts));
    let server = match Server::bind(base, cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("{e}");
            exit(1);
        }
    };
    // The ci.sh serve stage and the bench harness parse this line to
    // discover the ephemeral port, so keep its shape stable.
    println!("feo-serve listening on {}", server.local_addr());
    feo::serve::shutdown::install();
    let stop = server.shutdown_flag();
    std::thread::spawn(move || {
        while !feo::serve::shutdown::requested() {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    match server.run() {
        Ok(outcome) => {
            if outcome.clean {
                eprintln!("feo-serve: drained cleanly, exiting");
            } else {
                eprintln!(
                    "feo-serve: drain deadline hit, force-cancelled {} request(s)",
                    outcome.force_cancelled
                );
            }
            exit(0);
        }
        Err(e) => {
            eprintln!("{e}");
            exit(1);
        }
    }
}

/// `feo compact --store <dir>` — open the store (replaying its WAL) and
/// fold every committed layer into a fresh base segment with an empty
/// WAL. The swap is atomic (MANIFEST rename), so a crash mid-compaction
/// leaves the old segment/WAL pair intact.
fn cmd_compact(args: &[String]) {
    let opts = parse_opts(args);
    let Some(dir) = &opts.store else {
        eprintln!("compact needs --store <dir>");
        exit(2);
    };
    let mut base = EngineBase::open(dir, curated(), opts.user.clone(), opts.ctx.clone())
        .unwrap_or_else(|e| {
            eprintln!("failed to open store {}: {e}", dir.display());
            exit(1);
        });
    let folded = base.head().0;
    if let Err(e) = base.compact() {
        eprintln!("compact failed: {e}");
        exit(1);
    }
    let index = base.store().map(|s| s.segment_index()).unwrap_or_default();
    println!(
        "compacted {} WAL epoch(s) into segment {:06} ({} triples, {} terms)",
        folded,
        index,
        base.graph().len(),
        base.graph().term_count()
    );
}

fn cmd_list() {
    let kg = curated();
    println!("Recipes:");
    for r in &kg.recipes {
        println!("  {:<28} {} kcal", r.id, r.calories);
    }
    println!("\nIngredients:");
    let names: Vec<&str> = kg.ingredients.iter().map(|i| i.id.as_str()).collect();
    for chunk in names.chunks(5) {
        println!("  {}", chunk.join(", "));
    }
    println!("\nDiets:");
    for d in &kg.diets {
        println!("  {:<14} forbids {}", d.id, d.forbids_categories.join(", "));
    }
    println!("\nGoals:");
    for g in &kg.goals {
        println!("  {:<18} wants {}", g.id, g.wants_nutrient);
    }
}

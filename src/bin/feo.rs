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

use feo::core::ecosystem::{apply_hypothesis, assemble, assert_question};
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

/// Prints `message` and exits with `code`: 2 for bad usage, 1 for a
/// command that could not be carried out.
fn fail(code: i32, message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    exit(code);
}

/// The value after flag `arg`; exits 2 when there is none.
fn flag_value(arg: &str, value: Option<&String>) -> String {
    value
        .cloned()
        .unwrap_or_else(|| fail(2, format_args!("{arg} needs a value")))
}

/// `value` parsed as a `T`; exits 2 saying `arg` needs `what` when it
/// does not parse.
fn parsed<T: std::str::FromStr>(arg: &str, value: String, what: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| fail(2, format_args!("{arg} needs {what}")))
}

/// Reads a hypothesis spec (`/explain`'s grammar); exits 2 on a bad one.
fn parse_spec(spec: &str) -> Hypothesis {
    Hypothesis::from_spec(spec).unwrap_or_else(|e| fail(2, e))
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
    let list = |v: &str| -> Vec<String> {
        v.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || flag_value(arg, args.next());
        match arg.as_str() {
            "--likes" => user.likes = list(&value()),
            "--dislikes" => user.dislikes = list(&value()),
            "--allergies" => user.allergies = list(&value()),
            "--diet" => user.diet = Some(value()),
            "--goals" => user.goals = list(&value()),
            "--region" => region = Some(value()),
            "--season" => {
                season = match value().to_ascii_lowercase().as_str() {
                    "spring" => Season::Spring,
                    "summer" => Season::Summer,
                    "autumn" | "fall" => Season::Autumn,
                    "winter" => Season::Winter,
                    other => fail(2, format_args!("unknown season '{other}'")),
                }
            }
            "--pregnant" => user.pregnant = true,
            "--top" => top = parsed(arg, value(), "an integer"),
            "--raw" => raw = true,
            "--json" => json = true,
            "--explain" => explain = true,
            "--as-of" => as_of = Some(parsed(arg, value(), "an epoch number")),
            "--commit" => {
                let spec = value();
                commits.push((spec.clone(), parse_spec(&spec)));
            }
            "--apply" => {
                let spec = value();
                apply.push((spec.clone(), parse_spec(&spec)));
            }
            "--from" => from = Some(parsed(arg, value(), "an epoch number")),
            "--store" => store = Some(std::path::PathBuf::from(value())),
            "--branch" => {
                let v = value();
                let Some((name, spec)) = v.split_once('=') else {
                    fail(2, "--branch needs name=<hypothesis spec>");
                };
                branches.push((name.to_string(), parse_spec(spec)));
            }
            other if other.starts_with("--") => fail(2, format_args!("unknown flag '{other}'")),
            other => positional.push(other.to_string()),
        }
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
                    fail(
                        1,
                        format_args!("failed to open store {}: {e}", dir.display()),
                    )
                },
            )
        }
        maybe_dir => {
            let mut base = EngineBase::new(curated(), opts.user.clone(), opts.ctx.clone())
                .unwrap_or_else(|e| fail(1, format_args!("failed to build engine: {e}")));
            if let Some(dir) = maybe_dir {
                if let Err(e) = base.save_to(dir) {
                    fail(
                        1,
                        format_args!("failed to write store {}: {e}", dir.display()),
                    );
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
            fail(1, format_args!("branch '{name}': {e}"));
        }
    }
    base
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
        fail(
            2,
            "explain needs a subcommand (why-eat | why-over | what-if-pregnant | steps)",
        );
    };
    let opts = parse_opts(&args[1..]);
    let question = match kind.as_str() {
        "why-eat" => Question::WhyEat {
            food: opts
                .positional
                .first()
                .cloned()
                .unwrap_or_else(|| fail(2, "why-eat needs a food id")),
        },
        "why-over" => {
            if opts.positional.len() < 2 {
                fail(2, "why-over needs two food ids");
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
            food: opts
                .positional
                .first()
                .cloned()
                .unwrap_or_else(|| fail(2, "steps needs a food id")),
        },
        other => fail(2, format_args!("unknown explain subcommand '{other}'")),
    };
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
        Err(err) => fail(1, format_args!("cannot explain: {err}")),
    }
}

fn cmd_proof(args: &[String]) {
    if args.len() < 2 {
        fail(2, "proof needs <Individual> <fact|foil>");
    }
    let individual = args[0].clone();
    let class = match args[1].to_ascii_lowercase().as_str() {
        "fact" => feo::ontology::ns::eo::FACT,
        "foil" => feo::ontology::ns::eo::FOIL,
        other => fail(2, format_args!("expected 'fact' or 'foil', got '{other}'")),
    };
    let opts = parse_opts(&args[2..]);
    let mut base = EngineBase::new_with_proofs(curated(), opts.user.clone(), opts.ctx.clone())
        .unwrap_or_else(|e| fail(1, format_args!("failed to build engine: {e}")));
    // Fact/foil classification is relative to a question parameter, so
    // the question (the first liked food, or a default) is committed
    // with its closure and derivations before the proof is read.
    let param = opts
        .user
        .likes
        .first()
        .cloned()
        .unwrap_or_else(|| "ButternutSquashSoup".to_string());
    let question = Question::WhyEat { food: param };
    base.commit_with("proof", |overlay| {
        assert_question(&question, overlay);
    });
    match base.proof_of_type(&individual, class) {
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
        fail(2, "query needs a SPARQL string");
    };
    // Prepend the standard prefixes so short queries work out of the box.
    let full = format!("{}{}", feo::ontology::ns::sparql_prologue(), sparql);
    // Answer over an epoch view of the chain: the head by default,
    // an older epoch with --as-of, the store-backed head with --store.
    let base = base_with_chain(&opts);
    let epoch = opts.as_of.unwrap_or(base.head().0);
    let Some(view) = base.ledger().view(EpochId(epoch)) else {
        fail(1, EngineError::UnknownEpoch(epoch));
    };
    let qopts = QueryOptions {
        explain: opts.explain,
        ..Default::default()
    };
    match feo::sparql::query(&view, &full, &qopts) {
        Ok(result) => print_query_result(result, opts.json),
        Err(e) => fail(1, e),
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
        let chain_ok = base.ledger().verify_chain().is_none();
        let envelope = feo::core::json::object()
            .field("head", base.head().0)
            .field("chain_ok", chain_ok)
            .field("commits", base.history())
            .end();
        println!("{envelope}");
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
        Some(epoch) => fail(1, format_args!("chain BROKEN at epoch {}", epoch.0)),
    }
}

/// `feo branch create|diff|list` — named what-if worlds forked from the
/// epoch ledger. The CLI is stateless, so each invocation first rebuilds
/// the main chain from `--commit` specs, then forks branches in-process.
fn cmd_branch(args: &[String]) {
    let Some(sub) = args.first().cloned() else {
        fail(2, "branch needs a subcommand (create | diff | list)");
    };
    let opts = parse_opts(&args[1..]);
    match sub.as_str() {
        "create" => {
            let Some(name) = opts.positional.first().cloned() else {
                fail(2, "branch create needs a name");
            };
            let mut base = base_with_chain(&opts);
            let from = EpochId(opts.from.unwrap_or(base.head().0));
            if let Err(e) = base.branch_create(&name, from) {
                fail(1, format_args!("branch '{name}': {e}"));
            }
            for (spec, hypothesis) in &opts.apply {
                if let Err(e) = base.branch_apply(&name, hypothesis) {
                    fail(1, format_args!("branch '{name}' applying {spec}: {e}"));
                }
            }
            let Some(info) = base.branch_list().into_iter().find(|b| b.name == name) else {
                fail(1, format_args!("branch '{name}' vanished after creation"));
            };
            println!(
                "branch '{}' forked at epoch {} with {} commit(s), head {}",
                info.name, info.fork.0, info.commits, info.head.0
            );
            let diff = base
                .branch_diff(&name, "main")
                .unwrap_or_else(|e| fail(1, format_args!("diff vs main: {e}")));
            println!(
                "diverges from main by +{} / -{} triples",
                diff.only_in_a.len(),
                diff.only_in_b.len()
            );
        }
        "diff" => {
            if opts.positional.len() < 2 {
                fail(2, "branch diff needs two names ('main' or --branch names)");
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
                Err(e) => fail(1, e),
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
        other => fail(
            2,
            format_args!("unknown branch subcommand '{other}' (create | diff | list)"),
        ),
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
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || flag_value(arg, args.next());
        let u64 = |v| -> u64 { parsed(arg, v, "an unsigned integer") };
        let f64 = |v| -> f64 { parsed(arg, v, "a number") };
        match arg.as_str() {
            "--addr" => cfg.addr = value(),
            "--port" => cfg.addr = format!("127.0.0.1:{}", u64(value())),
            "--max-inflight" => cfg.admission.max_inflight = u64(value()).max(1) as usize,
            "--max-queue" => cfg.admission.max_queue = u64(value()) as usize,
            "--tenant-rate" => cfg.admission.tenant_rate = f64(value()),
            "--tenant-burst" => cfg.admission.tenant_burst = f64(value()),
            "--deadline-ms" => cfg.default_deadline_ms = u64(value()).max(1),
            "--max-deadline-ms" => cfg.max_deadline_ms = u64(value()).max(1),
            "--drain-ms" => cfg.drain_deadline_ms = u64(value()),
            "--queue-wait-ms" => cfg.queue_wait_cap_ms = u64(value()),
            "--threads" => {
                cfg.parallelism = match value().to_ascii_lowercase().as_str() {
                    "off" | "1" => Parallelism::Off,
                    "auto" => Parallelism::Auto,
                    n => match n.parse::<usize>() {
                        Ok(n) if n > 0 => Parallelism::Fixed(n),
                        _ => fail(2, "--threads needs a positive integer, 'off', or 'auto'"),
                    },
                }
            }
            other => passthrough.push(other.to_string()),
        }
    }
    let opts = parse_opts(&passthrough);
    let base = std::sync::Arc::new(base_with_chain(&opts));
    let server = match Server::bind(base, cfg) {
        Ok(server) => server,
        Err(e) => fail(1, e),
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
        Err(e) => fail(1, e),
    }
}

/// `feo compact --store <dir>` — open the store (replaying its WAL) and
/// fold every committed layer into a fresh base segment with an empty
/// WAL. The swap is atomic (MANIFEST rename), so a crash mid-compaction
/// leaves the old segment/WAL pair intact.
fn cmd_compact(args: &[String]) {
    let opts = parse_opts(args);
    let Some(dir) = &opts.store else {
        fail(2, "compact needs --store <dir>");
    };
    let mut base = EngineBase::open(dir, curated(), opts.user.clone(), opts.ctx.clone())
        .unwrap_or_else(|e| {
            fail(
                1,
                format_args!("failed to open store {}: {e}", dir.display()),
            )
        });
    let folded = base.head().0;
    if let Err(e) = base.compact() {
        fail(1, format_args!("compact failed: {e}"));
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

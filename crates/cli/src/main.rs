//! `ruf95` — command-line driver for the alias-analysis reproduction.
//!
//! Run `ruf95 help` for the command list, or `ruf95 <command> --help`
//! for one command's flags. Commands that analyse a program accept
//! either a path to a `.c` file or `bench:NAME` to load a program from
//! the bundled suite.
//!
//! Every pipeline failure — frontend, lowering, or a solver's step
//! budget — funnels through [`alias::AnalysisError`] and is rendered
//! uniformly here at the boundary.

use alias::modref::mod_ref;
use alias::stats::compare_at_indirect_refs;
use alias::{Analysis, AnalysisError, CsConfig};
use proto::json::Value;
use std::process::ExitCode;

mod dispatch;
mod paper;

/// One entry in the subcommand table. `value_flags` lists the flags
/// that consume the following argument; every other `--flag` named in
/// `flag_help` is a boolean switch, and any flag named in neither is
/// rejected.
pub(crate) struct Command {
    name: &'static str,
    /// Argument synopsis after the command name, for usage lines.
    synopsis: &'static str,
    about: &'static str,
    /// Per-flag help lines, one `--flag  description` per entry.
    flag_help: &'static [&'static str],
    value_flags: &'static [&'static str],
    needs_source: bool,
    run: fn(&Ctx) -> Result<(), String>,
}

pub(crate) const SOURCE_ARG: &str = "<file.c | bench:NAME>";

const COMMANDS: &[Command] = &[
    Command {
        name: "refs",
        synopsis: SOURCE_ARG,
        about: "points-to sets at indirect refs (CI)",
        flag_help: &[],
        value_flags: &[],
        needs_source: true,
        run: |cx| cmd_refs(&cx.analysis()?, &cx.file()),
    },
    Command {
        name: "compare",
        synopsis: SOURCE_ARG,
        about: "CI vs CS at every indirect ref",
        flag_help: &[],
        value_flags: &[],
        needs_source: true,
        run: |cx| {
            let a = cx.analysis()?;
            cmd_compare(&a, &cx.file()).map_err(|e| cx.render_err(e))
        },
    },
    Command {
        name: "modref",
        synopsis: SOURCE_ARG,
        about: "per-function mod/ref summary",
        flag_help: &[],
        value_flags: &[],
        needs_source: true,
        run: |cx| cmd_modref(&cx.analysis()?),
    },
    Command {
        name: "dot",
        synopsis: SOURCE_ARG,
        about: "VDG in Graphviz DOT on stdout",
        flag_help: &[],
        value_flags: &[],
        needs_source: true,
        run: |cx| {
            print!("{}", vdg::dot::to_dot(&cx.analysis()?.graph));
            Ok(())
        },
    },
    Command {
        name: "ir",
        synopsis: SOURCE_ARG,
        about: "VDG as a per-function listing",
        flag_help: &[],
        value_flags: &[],
        needs_source: true,
        run: |cx| {
            print!("{}", vdg::display::to_text(&cx.analysis()?.graph));
            Ok(())
        },
    },
    Command {
        name: "run",
        synopsis: SOURCE_ARG,
        about: "interpret and check soundness",
        flag_help: &[],
        value_flags: &[],
        needs_source: true,
        run: |cx| cmd_run(&cx.analysis()?, &cx.name),
    },
    Command {
        name: "spectrum",
        synopsis: "<file.c | bench:NAME> [--json]",
        about: "Weihl/Steensgaard/CI/k=1/CS table (engine-driven)",
        flag_help: &["--json  dump the metrics report and referent sets as JSON"],
        value_flags: &[],
        needs_source: true,
        run: |cx| {
            cmd_spectrum(&cx.name, &cx.source, cx.flags.has("json")).map_err(|e| cx.render_err(e))
        },
    },
    Command {
        name: "analyze",
        synopsis: "[<file.c | bench:NAME>] [--suite] [--fresh] [--json] [--connect ADDR]",
        about: "full solver stack via the typed request API; prints fingerprints",
        flag_help: &[
            "--suite         analyze every bundled benchmark instead of one source",
            "--fresh         bypass every cache and solve from scratch",
            "--project NAME  session name on the service (default cli)",
            "--json          print the full typed response as JSON",
            "--connect ADDR  send to a running `ruf95 serve` daemon",
            "--store DIR     persistent job store for in-process runs",
        ],
        value_flags: &["project", "connect", "store", "mem-budget", "threads"],
        needs_source: false,
        run: dispatch::cmd_analyze,
    },
    Command {
        name: "query",
        synopsis: "<file.c | bench:NAME> (--site N | --a N --b N) [--analysis NAME] [--exhaustive]",
        about: "point alias queries, demand-driven by default (no whole-program solve)",
        flag_help: &[
            "--site N         referent set at indirect ref N",
            "--a N / --b N    may-alias verdict for indirect refs N and M",
            "--analysis NAME  solver to query (default ci)",
            "--exhaustive     solve the whole program first, then look the answer up",
            "--project NAME   session name on the service (default cli)",
            "--json           print the full typed response as JSON",
            "--connect ADDR   send to a running `ruf95 serve` daemon",
        ],
        value_flags: &["site", "a", "b", "analysis", "project", "connect", "store"],
        needs_source: true,
        run: dispatch::cmd_query,
    },
    Command {
        name: "check",
        synopsis: "[<file.c | bench:NAME>] [--suite] [--analysis NAME] [--json]",
        about: "memory-safety checkers with oracle-labeled precision table",
        flag_help: &[
            "--suite          check every bundled benchmark instead of one source",
            "--analysis NAME  solver whose diagnostics are rendered (default ci)",
            "--json           print the metrics report and diagnostics as JSON",
            "--project NAME   session name on the service (default cli)",
            "--connect ADDR   send to a running `ruf95 serve` daemon",
            "--store DIR      persistent job store for in-process runs",
        ],
        value_flags: &["analysis", "project", "connect", "store"],
        needs_source: false,
        run: dispatch::cmd_check,
    },
    Command {
        name: "stats",
        synopsis: "[--seeds N] [--start-seed N] [--suite] [--threaded] [--json]",
        about: "campaign-corpus dedup accounting: unique function fingerprints",
        flag_help: &[
            "--seeds N       generated programs to scan (default 200)",
            "--start-seed N  first seed of the range (default 0)",
            "--suite         also scan the bundled benchmarks and litmus programs",
            "--threaded      scan the spawn-heavy threaded preset instead",
            "--default-gen   plain generator shapes instead of the campaign preset",
            "--threads N     worker threads, 0 = all cores (default 0)",
            "--json          print the stats as JSON",
        ],
        value_flags: &["seeds", "start-seed", "threads"],
        needs_source: false,
        run: cmd_stats,
    },
    Command {
        name: "campaign",
        synopsis: "[--seeds N] [--chunk N] [--dir DIR] [--max-chunks N] [--out FILE] [--no-shrink]",
        about: "resumable ecosystem-scale campaign with quarantine and deduplicated report",
        flag_help: &[
            "--seeds N        seeds to drive through all solvers+checkers (default 10000)",
            "--start-seed N   first seed of the range (default 0)",
            "--chunk N        seeds per journal chunk — the resume granularity (default 500)",
            "--dir DIR        state directory: journal, quarantine, report (default campaign)",
            "--max-chunks N   checkpoint and stop after N chunks this invocation",
            "--out FILE       also write CAMPAIGN_report.json to FILE",
            "--threads N      worker threads, 0 = all cores (default 0)",
            "--budget-ms N    advisory per-solver wall budget in ms (default 200)",
            "--max-steps N    solver step budget (default 2000000)",
            "--interp-steps N interpreter step budget (default 1000000)",
            "--default-gen    plain generator shapes instead of the campaign preset",
            "--threaded       spawn-heavy preset: race soundness/monotonicity per seed",
            "--no-shrink      skip quarantine/counterexample minimisation",
            "--quiet          no per-chunk progress on stderr",
            "--json           print only the final report JSON to stdout (summary to stderr)",
        ],
        value_flags: &[
            "seeds",
            "start-seed",
            "chunk",
            "dir",
            "max-chunks",
            "out",
            "threads",
            "budget-ms",
            "max-steps",
            "interp-steps",
            "panic-seed",
        ],
        needs_source: false,
        run: dispatch::cmd_campaign,
    },
    Command {
        name: "incremental",
        synopsis: "<file.c | bench:NAME> [--edits N] [--seed N] [--next FILE] [--json]",
        about: "re-analyze after edits, replaying what an edit left unchanged",
        flag_help: &[
            "--edits N       length of the seeded edit chain (default 3)",
            "--seed N        seed for the edit generator (default 1995)",
            "--next FILE     re-analyze FILE's contents instead of generating edits",
            "--json          print a JSON array of steps (edit, cross-check, report)",
            "--project NAME  session name on the service (default incremental)",
            "--connect ADDR  push the edit chain through a running daemon's session",
            "--store DIR     persistent job store for in-process runs",
        ],
        value_flags: &["edits", "seed", "next", "project", "connect", "store"],
        needs_source: true,
        run: dispatch::cmd_incremental,
    },
    Command {
        name: "serve",
        synopsis: "[--addr HOST:PORT] [--store DIR] [--mem-budget BYTES] [--threads N]",
        about: "persistent analysis daemon (JSON over TCP)",
        flag_help: &[
            "--addr HOST:PORT    listen address (default 127.0.0.1:7095)",
            "--store DIR         persist jobs/fingerprints across restarts",
            "--mem-budget BYTES  LRU-evict idle sessions over this estimate (0 = off)",
            "--threads N         worker threads per request, 0 = all cores",
        ],
        value_flags: &["addr", "store", "mem-budget", "threads"],
        needs_source: false,
        run: dispatch::cmd_serve,
    },
    Command {
        name: "client",
        synopsis: "--connect HOST:PORT [REQUESTS.jsonl | -]",
        about: "send newline-delimited JSON requests to a daemon",
        flag_help: &[
            "--connect ADDR  daemon address (required)",
            "reads requests from the file argument, or stdin when absent/`-`",
        ],
        value_flags: &["connect"],
        needs_source: false,
        run: dispatch::cmd_client,
    },
    Command {
        name: "paper",
        synopsis: "<experiment | all>",
        about: "the paper's tables and figures in DESIGN §2 order (no argument lists them)",
        flag_help: &[],
        value_flags: &[],
        needs_source: false,
        run: paper::cmd_paper,
    },
    Command {
        name: "list",
        synopsis: "",
        about: "list bundled benchmarks",
        flag_help: &[],
        value_flags: &[],
        needs_source: false,
        run: |_| {
            for b in suite::benchmarks() {
                println!(
                    "{:<10} {:>5} lines  exit {}",
                    b.name,
                    b.source.lines().count(),
                    b.expected_exit
                );
            }
            Ok(())
        },
    },
];

/// Flags shared by every command, split from the positionals once the
/// command's `value_flags` are known.
pub(crate) struct Flags {
    pub(crate) positional: Vec<String>,
    switches: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(args: &[String], command: &Command) -> Result<Flags, String> {
        let value_flags = command.value_flags;
        let known = |name: &str| {
            value_flags.contains(&name)
                || command.flag_help.iter().any(|line| {
                    line.split_whitespace()
                        .any(|word| word.strip_prefix("--") == Some(name))
                })
        };
        let mut flags = Flags {
            positional: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                flags.positional.push(arg.clone());
                continue;
            };
            let key = name.split_once('=').map_or(name, |(key, _)| key);
            if !known(key) {
                return Err(format!(
                    "unknown flag `--{key}` for `{}` (see `ruf95 {} --help`)",
                    command.name, command.name
                ));
            }
            if let Some((key, value)) = name.split_once('=') {
                flags
                    .switches
                    .push((key.to_string(), Some(value.to_string())));
            } else if value_flags.contains(&name) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{name} expects a value"))?;
                flags.switches.push((name.to_string(), Some(value.clone())));
            } else {
                flags.switches.push((name.to_string(), None));
            }
        }
        Ok(flags)
    }

    pub(crate) fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|(k, _)| k == name)
    }

    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.switches
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    pub(crate) fn get_parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        match self.switches.iter().find(|(k, _)| k == name) {
            Some((_, Some(v))) => v
                .parse()
                .map_err(|_| format!("--{name}: invalid value `{v}`")),
            Some((_, None)) => Err(format!("--{name} expects a value")),
            None => Ok(default),
        }
    }
}

/// Everything a command handler needs: the loaded source (empty for
/// sourceless commands like `campaign` and `list`) plus the parsed flags.
pub(crate) struct Ctx {
    pub(crate) name: String,
    pub(crate) source: String,
    pub(crate) flags: Flags,
}

impl Ctx {
    fn analysis(&self) -> Result<Analysis, String> {
        Analysis::of_source(&self.source).map_err(|e| self.render_err(e))
    }

    fn file(&self) -> cfront::SourceFile {
        cfront::SourceFile::new(&self.name, &self.source)
    }

    /// The generator preset that `--threaded` or `--default-gen`
    /// selects (the campaign preset when neither is given).
    pub(crate) fn gen_preset(&self) -> Result<suite::generator::GenConfig, String> {
        match (self.flags.has("threaded"), self.flags.has("default-gen")) {
            (true, true) => Err("--threaded and --default-gen pick different generator \
                                 presets; pass at most one"
                .into()),
            (true, false) => Ok(suite::generator::GenConfig::threaded()),
            (false, true) => Ok(suite::generator::GenConfig::default()),
            (false, false) => Ok(suite::generator::GenConfig::campaign()),
        }
    }

    /// The single error boundary: every pipeline failure, including a
    /// CS or k=1 step-budget overflow, is rendered here.
    fn render_err(&self, e: AnalysisError) -> String {
        match &e {
            AnalysisError::Frontend(f) => f.render(&self.file()),
            other => other.to_string(),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: ruf95 <command> [args]\n\ncommands:");
    for c in COMMANDS {
        eprintln!("  {:<10} {}", c.name, c.about);
    }
    eprintln!("\nrun `ruf95 <command> --help` for a command's flags");
    ExitCode::from(2)
}

fn command_help(c: &Command) {
    let sep = if c.synopsis.is_empty() { "" } else { " " };
    println!("usage: ruf95 {}{sep}{}\n\n{}", c.name, c.synopsis, c.about);
    if !c.flag_help.is_empty() {
        println!("\nflags:");
        for line in c.flag_help {
            println!("  {line}");
        }
    }
}

/// Builds an engine job, attaching the bundled interpreter input when
/// the name resolves to a suite benchmark (the checker oracle replays
/// the benchmark's real stdin).
fn job_for(name: &str, source: &str) -> engine::Job {
    let mut job = engine::Job::new(name, source);
    if let Some(b) = suite::by_name(name) {
        job.input = b.input.to_vec();
    }
    job
}

pub(crate) fn load_source(spec: &str) -> Result<(String, String), String> {
    if let Some(name) = spec.strip_prefix("bench:") {
        let b = suite::by_name(name)
            .ok_or_else(|| format!("unknown benchmark `{name}` (try `ruf95 list`)"))?;
        return Ok((name.to_string(), b.source.to_string()));
    }
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
    Ok((spec.to_string(), text))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    if cmd == "help" || cmd == "--help" || cmd == "-h" {
        usage();
        return ExitCode::SUCCESS;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == cmd) else {
        eprintln!("error: unknown command `{cmd}`\n");
        return usage();
    };
    let rest = &args[1..];
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        command_help(command);
        return ExitCode::SUCCESS;
    }
    let flags = match Flags::parse(rest, command) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (name, source) = if command.needs_source {
        let Some(spec) = flags.positional.first() else {
            eprintln!("usage: ruf95 {} {}", command.name, command.synopsis);
            return ExitCode::from(2);
        };
        match load_source(spec) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        (String::new(), String::new())
    };
    let cx = Ctx {
        name,
        source,
        flags,
    };
    match (command.run)(&cx) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Renders a node's source position as `line:col`.
fn site_line(graph: &vdg::Graph, file: &cfront::SourceFile, node: vdg::NodeId) -> String {
    let span = graph.node(node).span;
    let lc = file.line_col(span.start);
    format!("{}:{}", lc.line, lc.col)
}

fn cmd_refs(a: &Analysis, file: &cfront::SourceFile) -> Result<(), String> {
    println!(
        "{} nodes, {} outputs, {} CI points-to pairs\n",
        a.graph.node_count(),
        a.graph.output_count(),
        a.ci.total_pairs()
    );
    for (node, is_write) in a.graph.indirect_mem_ops() {
        let names: Vec<String> =
            a.ci.loc_referents(&a.graph, node)
                .iter()
                .map(|&p| a.ci.paths.display(p, &a.graph))
                .collect();
        println!(
            "{} at {}: {{{}}}",
            if is_write { "write" } else { "read " },
            site_line(&a.graph, file, node),
            names.join(", ")
        );
    }
    Ok(())
}

fn cmd_compare(a: &Analysis, file: &cfront::SourceFile) -> Result<(), AnalysisError> {
    let cs = a
        .run_cs(&CsConfig::default())
        .map_err(AnalysisError::from)?;
    let mismatches = compare_at_indirect_refs(&a.graph, &a.ci, &cs);
    println!(
        "CI pairs: {}   CS pairs: {}   indirect refs: {}   mismatches: {}",
        a.ci.total_pairs(),
        cs.total_pairs(),
        a.graph.indirect_mem_ops().len(),
        mismatches.len()
    );
    for m in &mismatches {
        println!(
            "  {} at {}: CI {{{}}} vs CS {{{}}}",
            if m.is_write { "write" } else { "read" },
            site_line(&a.graph, file, m.node),
            m.ci_referents.join(", "),
            m.cs_referents.join(", ")
        );
    }
    if mismatches.is_empty() {
        println!("identical at every indirect memory reference (the paper's headline)");
    }
    Ok(())
}

fn cmd_modref(a: &Analysis) -> Result<(), String> {
    let summary = mod_ref(&a.graph, &a.ci, &a.ci.callees).expect("ci has pairs");
    for f in a.graph.func_ids() {
        let info = a.graph.func(f);
        if info.name == "<root>" {
            continue;
        }
        let Some(mr) = summary.transitive.get(&f) else {
            continue;
        };
        let fmt = |set: &std::collections::BTreeSet<alias::PathId>| {
            set.iter()
                .map(|&p| a.ci.paths.display(p, &a.graph))
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!("{}:", info.name);
        println!("  ref: {{{}}}", fmt(&mr.refs));
        println!("  mod: {{{}}}", fmt(&mr.mods));
    }
    Ok(())
}

fn cmd_run(a: &Analysis, name: &str) -> Result<(), String> {
    let input = suite::by_name(name)
        .map(|b| b.input.to_vec())
        .unwrap_or_default();
    let out = interp::run(
        &a.program,
        &interp::Config {
            input,
            ..interp::Config::default()
        },
    )
    .map_err(|e| e.to_string())?;
    print!("{}", out.stdout);
    println!("[exit {} after {} steps]", out.exit, out.steps);
    let violations = interp::check_solution_dyn(&a.program, &a.graph, &a.ci, &out.trace);
    if violations.is_empty() {
        println!("[soundness: every runtime dereference was predicted by the CI analysis]");
        Ok(())
    } else {
        Err(format!("soundness violations: {violations:#?}"))
    }
}

/// The five-analysis spectrum, driven by one engine invocation over the
/// program: every solver runs through `alias::SolverSpec::solve` and the
/// table reads back through the `Solution` view.
fn cmd_spectrum(name: &str, source: &str, json: bool) -> Result<(), AnalysisError> {
    const ORDER: [&str; 5] = ["weihl", "steensgaard", "ci", "k1", "cs"];
    let jobs = vec![job_for(name, source)];
    let run = engine::Engine::new().run(&jobs)?;
    let b = &run.benches[0];
    let file = cfront::SourceFile::new(name, source);
    let base_count = |analysis: &str, node: vdg::NodeId| -> Option<usize> {
        b.solution(analysis)
            .map(|s| s.loc_referent_bases(&b.graph, node).len())
    };

    if json {
        let refs = b
            .graph
            .indirect_mem_ops()
            .into_iter()
            .map(|(node, is_write)| {
                Value::obj([
                    ("site", site_line(&b.graph, &file, node).into()),
                    ("kind", if is_write { "write" } else { "read" }.into()),
                    (
                        "bases",
                        Value::obj(ORDER.iter().map(|&a| (a, base_count(a, node).into()))),
                    ),
                ])
            })
            .collect();
        let doc = Value::obj([("report", run.report.to_value()), ("refs", refs)]);
        println!("{}", doc.render_pretty());
        return Ok(());
    }

    println!(
        "{:<32} {:>6} {:>7} {:>5} {:>5} {:>5}",
        "indirect ref", "Weihl", "Steens", "CI", "k=1", "CS"
    );
    for (node, is_write) in b.graph.indirect_mem_ops() {
        let cell = |analysis: &str| -> String {
            base_count(analysis, node)
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:<32} {:>6} {:>7} {:>5} {:>5} {:>5}",
            format!(
                "{} {}",
                if is_write { "write" } else { "read" },
                site_line(&b.graph, &file, node)
            ),
            cell("weihl"),
            cell("steensgaard"),
            cell("ci"),
            cell("k1"),
            cell("cs"),
        );
    }
    Ok(())
}

/// Corpus dedup accounting: scans a campaign-shaped corpus (plus,
/// optionally, the bundled suite) and reports how often the same
/// function and the same checker diagnostic recur across programs —
/// the program-level reuse a content-addressed cache can exploit.
fn cmd_stats(cx: &Ctx) -> Result<(), String> {
    let cfg = engine::stats::StatsConfig {
        seeds: cx.flags.get_parsed("seeds", 200)?,
        start_seed: cx.flags.get_parsed("start-seed", 0)?,
        gen: cx.gen_preset()?,
        include_suite: cx.flags.has("suite"),
        threads: cx.flags.get_parsed("threads", 0)?,
    };
    let s = engine::stats::collect(&cfg)?;
    if cx.flags.has("json") {
        println!("{}", s.to_value().render_pretty());
    } else {
        print!("{}", s.summary());
    }
    Ok(())
}

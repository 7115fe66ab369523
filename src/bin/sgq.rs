//! `sgq` — the s-graffito command line: register a persistent streaming
//! graph query against an edge-stream file and print results as they are
//! derived.
//!
//! ```text
//! sgq run --query q.rq --stream edges.tsv --window 720 --slide 24
//! sgq run --gcore q.gcore --stream edges.tsv --stats
//! sgq explain --query q.rq --window 720 [--plans]
//! sgq gen --dataset so --edges 5000 --vertices 500 --out edges.tsv
//! ```
//!
//! Queries are Datalog-style RQ programs (`--query`, see
//! `sgq_query::parser`) or G-CORE texts (`--gcore`, window taken from the
//! `ON … WINDOW` clause). Streams are `src dst label timestamp` lines
//! (SNAP-style, see `sgq_datagen::io`). Timestamps are ticks; `--window` /
//! `--slide` are in the same unit.

use s_graffito::core::engine::{Engine, EngineOptions, PathImpl, PatternImpl};
use s_graffito::core::planner::{plan_canonical, Plan};
use s_graffito::core::{optimizer, rewrite};
use s_graffito::datagen::{self, io as stream_io, resolve, RawStream, SnbConfig, SoConfig};
use s_graffito::query::gcore::parse_gcore;
use s_graffito::query::{parse_program, SgqQuery, WindowSpec};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Command::parse(&args) {
        Ok(cmd) => match run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("sgq: {msg}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("sgq: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage:
  sgq run     --query FILE.rq | --gcore FILE   --stream FILE.tsv
              [--window N] [--slide N] [--label-window LABEL=SIZE[:SLIDE]]...
              [--path-impl direct|negative] [--pattern-impl hash|wcoj]
              [--plan N | --optimize] [--paths] [--quiet] [--stats] [--at T]
  sgq explain --query FILE.rq | --gcore FILE   [--window N] [--slide N] [--plans]
  sgq gen     --dataset so|snb --edges N [--vertices N] [--seed N] --out FILE.tsv

  --window/--slide default to 720/24 ticks (the paper's 30-day window, 1-day
  slide, at 24 ticks per day); G-CORE queries take both from their ON clause.";

/// A parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Run(RunArgs),
    Explain(ExplainArgs),
    Gen(GenArgs),
}

#[derive(Debug, PartialEq)]
struct RunArgs {
    query: QuerySource,
    stream: PathBuf,
    window: Option<u64>,
    slide: Option<u64>,
    /// Per-input-label window overrides (`label=size[:slide]`).
    label_windows: Vec<(String, u64, u64)>,
    path_impl: PathImpl,
    pattern_impl: PatternImpl,
    /// Plan index into the enumerated plan space (0 = canonical).
    plan: Option<usize>,
    /// Choose the plan with the least counted work on a stream prefix.
    optimize: bool,
    /// Materialize and print witness paths.
    paths: bool,
    /// Suppress per-result lines.
    quiet: bool,
    /// Print run statistics at the end.
    stats: bool,
    /// Also print the distinct answer set valid at this instant.
    at: Option<u64>,
}

#[derive(Debug, PartialEq)]
struct ExplainArgs {
    query: QuerySource,
    window: Option<u64>,
    slide: Option<u64>,
    /// Show the whole enumerated plan space, not just the canonical plan.
    plans: bool,
}

#[derive(Debug, PartialEq)]
struct GenArgs {
    dataset: String,
    edges: usize,
    vertices: u64,
    seed: u64,
    out: PathBuf,
}

#[derive(Debug, PartialEq)]
enum QuerySource {
    Datalog(PathBuf),
    Gcore(PathBuf),
}

impl Command {
    fn parse(args: &[String]) -> Result<Command, String> {
        let Some((sub, rest)) = args.split_first() else {
            return Err("missing subcommand".into());
        };
        let mut flags = Flags::new(rest)?;
        let cmd = match sub.as_str() {
            "run" => {
                let cmd = Command::Run(RunArgs {
                    query: flags.query_source()?,
                    stream: flags.path("--stream")?.ok_or("`run` needs --stream")?,
                    window: flags.num("--window")?,
                    slide: flags.num("--slide")?,
                    label_windows: flags
                        .values("--label-window")?
                        .iter()
                        .map(|v| parse_label_window(v))
                        .collect::<Result<Vec<_>, _>>()?,
                    path_impl: match flags.value("--path-impl")?.as_deref() {
                        None | Some("direct") => PathImpl::Direct,
                        Some("negative") => PathImpl::NegativeTuple,
                        Some(o) => return Err(format!("unknown --path-impl `{o}`")),
                    },
                    pattern_impl: match flags.value("--pattern-impl")?.as_deref() {
                        None | Some("hash") => PatternImpl::HashTree,
                        Some("wcoj") => PatternImpl::Wcoj,
                        Some(o) => return Err(format!("unknown --pattern-impl `{o}`")),
                    },
                    plan: flags.num("--plan")?.map(|n| n as usize),
                    optimize: flags.flag("--optimize"),
                    paths: flags.flag("--paths"),
                    quiet: flags.flag("--quiet"),
                    stats: flags.flag("--stats"),
                    at: flags.num("--at")?,
                });
                if matches!(&cmd, Command::Run(a) if a.plan.is_some() && a.optimize) {
                    return Err("--plan and --optimize are mutually exclusive".into());
                }
                cmd
            }
            "explain" => Command::Explain(ExplainArgs {
                query: flags.query_source()?,
                window: flags.num("--window")?,
                slide: flags.num("--slide")?,
                plans: flags.flag("--plans"),
            }),
            "gen" => Command::Gen(GenArgs {
                dataset: flags
                    .value("--dataset")?
                    .ok_or("`gen` needs --dataset so|snb")?,
                edges: flags.num("--edges")?.ok_or("`gen` needs --edges")? as usize,
                vertices: flags.num("--vertices")?.unwrap_or(0),
                seed: flags.num("--seed")?.unwrap_or(42),
                out: flags.path("--out")?.ok_or("`gen` needs --out")?,
            }),
            other => return Err(format!("unknown subcommand `{other}`")),
        };
        flags.finish()?;
        Ok(cmd)
    }
}

/// Minimal `--flag [value]` scanner with leftover detection.
struct Flags {
    pairs: Vec<(String, Option<String>)>,
    used: Vec<bool>,
}

impl Flags {
    fn new(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if !a.starts_with("--") {
                return Err(format!("unexpected argument `{a}`"));
            }
            let value = match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    i += 1;
                    Some(v.clone())
                }
                _ => None,
            };
            pairs.push((a.clone(), value));
            i += 1;
        }
        let used = vec![false; pairs.len()];
        Ok(Flags { pairs, used })
    }

    /// All occurrences of a repeatable `--flag value`.
    fn values(&mut self, name: &str) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if k == name {
                self.used[i] = true;
                match v {
                    Some(v) => out.push(v.clone()),
                    None => return Err(format!("{name} needs a value")),
                }
            }
        }
        Ok(out)
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if k == name {
                self.used[i] = true;
                return match v {
                    Some(v) => Ok(Some(v.clone())),
                    None => Err(format!("{name} needs a value")),
                };
            }
        }
        Ok(None)
    }

    fn flag(&mut self, name: &str) -> bool {
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if k == name && v.is_none() {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    fn num(&mut self, name: &str) -> Result<Option<u64>, String> {
        match self.value(name)? {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name} must be an integer, got `{v}`")),
            None => Ok(None),
        }
    }

    fn path(&mut self, name: &str) -> Result<Option<PathBuf>, String> {
        Ok(self.value(name)?.map(PathBuf::from))
    }

    fn query_source(&mut self) -> Result<QuerySource, String> {
        match (self.path("--query")?, self.path("--gcore")?) {
            (Some(q), None) => Ok(QuerySource::Datalog(q)),
            (None, Some(g)) => Ok(QuerySource::Gcore(g)),
            (Some(_), Some(_)) => Err("--query and --gcore are mutually exclusive".into()),
            (None, None) => Err("need --query FILE.rq or --gcore FILE".into()),
        }
    }

    fn finish(self) -> Result<(), String> {
        for (i, (k, _)) in self.pairs.iter().enumerate() {
            if !self.used[i] {
                return Err(format!("unknown or misplaced flag `{k}`"));
            }
        }
        Ok(())
    }
}

/// Parses `label=size[:slide]` (slide defaults to 1).
fn parse_label_window(text: &str) -> Result<(String, u64, u64), String> {
    let (label, spec) = text
        .split_once('=')
        .ok_or_else(|| format!("--label-window needs `label=size[:slide]`, got `{text}`"))?;
    let (size, slide) = match spec.split_once(':') {
        Some((sz, sl)) => (sz, sl),
        None => (spec, "1"),
    };
    let size: u64 = size
        .parse()
        .map_err(|_| format!("bad window size in `{text}`"))?;
    let slide: u64 = slide
        .parse()
        .map_err(|_| format!("bad slide in `{text}`"))?;
    if size == 0 || slide == 0 {
        return Err(format!("window size/slide must be positive in `{text}`"));
    }
    Ok((label.trim().to_string(), size, slide))
}

/// Loads the query, applying window overrides (Datalog defaults 720/24;
/// G-CORE keeps its ON-clause window unless overridden).
fn load_query(
    source: &QuerySource,
    window: Option<u64>,
    slide: Option<u64>,
) -> Result<SgqQuery, String> {
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    match source {
        QuerySource::Datalog(p) => {
            let program = parse_program(&read(p)?).map_err(|e| e.to_string())?;
            let w = WindowSpec::new(window.unwrap_or(720), slide.unwrap_or(24));
            Ok(SgqQuery::new(program, w))
        }
        QuerySource::Gcore(p) => {
            let mut q = parse_gcore(&read(p)?).map_err(|e| e.to_string())?;
            if let Some(w) = window {
                q.window.size = w;
            }
            if let Some(s) = slide {
                q.window.slide = s;
            }
            Ok(q)
        }
    }
}

fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Explain(a) => explain(a),
        Command::Gen(a) => generate(a),
        Command::Run(a) => execute(a),
    }
}

fn explain(a: ExplainArgs) -> Result<(), String> {
    let query = load_query(&a.query, a.window, a.slide)?;
    println!("# program\n{}", query.program.display());
    let canonical = plan_canonical(&query);
    if !a.plans {
        println!("# canonical SGA plan\n{}", canonical.display());
        return Ok(());
    }
    for (i, plan) in rewrite::enumerate_plans(&canonical, 8).iter().enumerate() {
        println!(
            "# plan {i}{} — {} operators, {} stateful\n{}",
            if i == 0 { " (canonical)" } else { "" },
            plan.expr.size(),
            plan.expr.stateful_ops(),
            plan.display()
        );
    }
    Ok(())
}

fn generate(a: GenArgs) -> Result<(), String> {
    let vertices = if a.vertices == 0 {
        (a.edges as u64 / 8).max(10)
    } else {
        a.vertices
    };
    let raw: RawStream = match a.dataset.as_str() {
        "so" => datagen::so_stream(&SoConfig::new(vertices, a.edges).with_seed(a.seed)),
        "snb" => datagen::snb_stream(&SnbConfig::new(vertices, a.edges).with_seed(a.seed)),
        other => return Err(format!("unknown dataset `{other}` (so|snb)")),
    };
    let f = std::fs::File::create(&a.out)
        .map_err(|e| format!("cannot create {}: {e}", a.out.display()))?;
    stream_io::write_stream(&raw, f).map_err(|e| e.to_string())?;
    println!(
        "wrote {} edges ({} vertices, {} dataset) to {}",
        raw.len(),
        vertices,
        a.dataset,
        a.out.display()
    );
    Ok(())
}

fn execute(a: RunArgs) -> Result<(), String> {
    let mut query = load_query(&a.query, a.window, a.slide)?;
    for (label, size, slide) in &a.label_windows {
        query = query.with_label_window(label, WindowSpec::new(*size, *slide));
    }
    let raw = stream_io::read_stream_file(&a.stream).map_err(|e| e.to_string())?;
    let stream = resolve(&raw, query.program.labels());
    let skipped = raw.len() - stream.len();

    let opts = EngineOptions {
        path_impl: a.path_impl,
        pattern_impl: a.pattern_impl,
        materialize_paths: a.paths,
        ..Default::default()
    };

    let mut plans = rewrite::enumerate_plans(&plan_canonical(&query), 8);
    let index = match a.plan {
        Some(n) if n >= plans.len() => {
            return Err(format!(
                "plan index {n} out of range (see `sgq explain --plans`)"
            ))
        }
        Some(n) => n,
        None if a.optimize => {
            // Price every plan on a prefix of the stream (up to 2000 events).
            let prefix = s_graffito::types::InputStream::from_ordered(
                stream.sges().iter().take(2000).copied().collect(),
            );
            let choice = optimizer::choose_plan(&plans, &prefix, opts);
            eprintln!(
                "# chose plan {} of {}: counted work {}",
                choice.best,
                plans.len(),
                choice.work
            );
            choice.best
        }
        None => 0,
    };
    let plan: Plan = plans.swap_remove(index);

    let mut engine = Engine::from_plan_with(&plan, opts);
    let labels = engine.labels().clone();
    let started = std::time::Instant::now();
    let mut emitted = 0u64;
    let edges = datagen::feed::feed(&stream, |sge| {
        let results = engine.process(sge);
        emitted += results.len() as u64;
        if !a.quiet {
            for r in results {
                let path = r
                    .payload
                    .as_path()
                    .map(|p| {
                        let hops: Vec<String> = p
                            .edges()
                            .iter()
                            .map(|e| format!("{}-{}->{}", e.src.0, labels.name(e.label), e.trg.0))
                            .collect();
                        format!("  via {}", hops.join(" "))
                    })
                    .unwrap_or_default();
                println!(
                    "{}\t{} -> {}\t[{}, {}){}",
                    labels.name(r.label),
                    r.src.0,
                    r.trg.0,
                    r.interval.ts,
                    r.interval.exp,
                    path
                );
            }
        }
    });
    if let Some(t) = a.at {
        let mut answers: Vec<_> = engine.answer_at(t).into_iter().collect();
        answers.sort();
        println!("# answers valid at t={t}: {}", answers.len());
        for (s, trg) in answers {
            println!("@{t}\t{} -> {}", s.0, trg.0);
        }
    }
    if a.stats {
        let elapsed = started.elapsed();
        eprintln!("# edges processed : {edges} ({skipped} skipped: label not in query)");
        eprintln!("# results emitted : {emitted}");
        eprintln!("# elapsed         : {:.3} s", elapsed.as_secs_f64());
        eprintln!(
            "# throughput      : {:.0} edges/s",
            edges as f64 / elapsed.as_secs_f64().max(1e-9)
        );
        eprintln!("# operator state  : {} entries", engine.state_size());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Command::parse(&args)
    }

    #[test]
    fn parses_run() {
        let cmd = parse("run --query q.rq --stream s.tsv --window 100 --slide 5 --stats").unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.query, QuerySource::Datalog("q.rq".into()));
                assert_eq!(a.window, Some(100));
                assert_eq!(a.slide, Some(5));
                assert!(a.stats);
                assert!(!a.paths);
                assert_eq!(a.path_impl, PathImpl::Direct);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_impl_choices() {
        let cmd = parse("run --gcore q.gc --stream s.tsv --path-impl negative --pattern-impl wcoj")
            .unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.path_impl, PathImpl::NegativeTuple);
                assert_eq!(a.pattern_impl, PatternImpl::Wcoj);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_flags_and_subcommands() {
        assert!(parse("run --query q --stream s --bogus").is_err());
        assert!(parse("frobnicate").is_err());
        assert!(parse("").is_err());
        assert!(parse("run --stream s.tsv").is_err(), "missing query");
        assert!(parse("run --query a --gcore b --stream s").is_err());
        assert!(parse("run --query q --stream s --plan 1 --optimize").is_err());
        assert!(parse("run --query q --stream s --window ten").is_err());
    }

    #[test]
    fn parses_label_windows() {
        let cmd = parse(
            "run --query q.rq --stream s.tsv --label-window knows=24 --label-window purchase=720:24",
        )
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(
                    a.label_windows,
                    vec![
                        ("knows".to_string(), 24, 1),
                        ("purchase".to_string(), 720, 24)
                    ]
                );
            }
            other => panic!("{other:?}"),
        }
        assert!(parse("run --query q --stream s --label-window knows").is_err());
        assert!(parse("run --query q --stream s --label-window knows=0").is_err());
        assert!(parse("run --query q --stream s --label-window knows=24:x").is_err());
    }

    #[test]
    fn explain_and_gen_parse() {
        assert!(matches!(
            parse("explain --query q.rq --plans").unwrap(),
            Command::Explain(ExplainArgs { plans: true, .. })
        ));
        match parse("gen --dataset so --edges 100 --out x.tsv").unwrap() {
            Command::Gen(g) => {
                assert_eq!(g.dataset, "so");
                assert_eq!(g.edges, 100);
                assert_eq!(g.seed, 42);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn end_to_end_gen_explain_run() {
        let dir = std::env::temp_dir().join(format!("sgq_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stream = dir.join("s.tsv");
        let qfile = dir.join("q.rq");
        std::fs::write(&qfile, "Ans(x, y) <- a2q+(x, y).").unwrap();

        // gen
        run(parse(&format!(
            "gen --dataset so --edges 200 --vertices 40 --out {}",
            stream.display()
        ))
        .unwrap())
        .unwrap();
        assert!(stream.exists());

        // explain
        run(parse(&format!("explain --query {} --plans", qfile.display())).unwrap()).unwrap();

        // run (quiet, with a snapshot query)
        run(parse(&format!(
            "run --query {} --stream {} --window 100 --slide 10 --quiet --stats --at 50",
            qfile.display(),
            stream.display()
        ))
        .unwrap())
        .unwrap();

        // run the least-work plan, an explicit plan, and one out of range
        let base = format!(
            "run --query {} --stream {} --window 100 --quiet",
            qfile.display(),
            stream.display()
        );
        run(parse(&format!("{base} --optimize")).unwrap()).unwrap();
        run(parse(&format!("{base} --plan 1")).unwrap()).unwrap();
        assert!(run(parse(&format!("{base} --plan 99")).unwrap()).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }
}

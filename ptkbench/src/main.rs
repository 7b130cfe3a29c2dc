//! `ptkbench`: the socket-to-DP benchmark of the ptk workspace.
//!
//! ```text
//! ptkbench --workload <serve_point|serve_deep|serve_repeat|scan_paged>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Serve workloads drive the `ptk` binary built next to this one (`ptk
//! serve`) over loopback sockets; `scan_paged` runs in-process. Human
//! readable lines come first; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). See
//! README.md in this directory.

mod check;
mod client;
mod daemon;
mod paged;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;
mod stream;

use std::path::PathBuf;

use stream::Workload;

/// Where a run finds the daemon binary and keeps its files.
pub struct Env {
    /// The `ptk` binary under test.
    pub ptk: PathBuf,
    /// Scratch directory of this run (removed at exit).
    pub work: PathBuf,
    /// Directory for artifacts that outlive the run (Chrome traces).
    pub out: PathBuf,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: ptkbench --workload <serve_point|serve_deep|serve_repeat|scan_paged> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The scan_paged fixture is written by a child process of this binary.
    if let [flag, path] = args.as_slice() {
        if flag == "--write-fixture" {
            if let Err(e) = paged::write_fixture(std::path::Path::new(path)) {
                eprintln!("ptkbench: {e}");
                std::process::exit(1);
            }
            return;
        }
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ptkbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => outcome.print(args.trace),
        Err(e) => {
            eprintln!("ptkbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let ptk = exe.with_file_name("ptk");
    if !ptk.is_file() {
        return Err(format!("{} not found; build with run.sh", ptk.display()));
    }
    let out = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join("ptkbench")
        .join("out");
    let work = out.join(format!(
        "work-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let env = Env { ptk, work, out };
    let result = match args.workload {
        Workload::ScanPaged => paged::run(args.seed, args.seconds, args.trace, &env),
        workload => serve::run(workload, args.seed, args.seconds, args.trace, &env),
    };
    let _ = std::fs::remove_dir_all(&env.work);
    match result {
        Ok(outcome) if outcome.attempted() == 0 => Err("no operation was attempted".into()),
        other => other,
    }
}

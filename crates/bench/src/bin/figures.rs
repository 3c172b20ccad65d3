//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [table4 table5 fig5 fig6 ... fig15 ablation batch cache churn refresh refresh-incremental codec obs serve | all]
//! ```
//!
//! `--quick` shrinks the collection for smoke runs; default scales are the
//! DESIGN.md §3 reductions of the paper's setup.

use bench::{figs, loadgen, Params};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--") && a.parse::<u64>().is_err())
        .map(String::as_str)
        .collect();
    if which.is_empty() || which.contains(&"all") {
        which = vec![
            "table4",
            "table5",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "ablation",
            "batch",
            "cache",
            "churn",
            "refresh",
            "refresh-incremental",
            "codec",
            "obs",
            "serve",
        ];
    }

    let mut p = if quick {
        Params::quick()
    } else {
        Params::default()
    };
    // Optional overrides: --objects N, --users N, --trials N, --seed N.
    let flag = |name: &str| -> Option<u64> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    if let Some(v) = flag("--objects") {
        p.num_objects = v as usize;
    }
    if let Some(v) = flag("--users") {
        p.num_users = v as usize;
    }
    if let Some(v) = flag("--trials") {
        p.trials = (v as usize).max(1);
    }
    if let Some(v) = flag("--seed") {
        p.seed = v;
    }
    println!(
        "# MaxBRSTkNN experiment harness — |O|={}, |U|={}, trials={}{}",
        p.num_objects,
        p.num_users,
        p.trials,
        if quick { " (quick mode)" } else { "" }
    );

    for w in which {
        let start = std::time::Instant::now();
        match w {
            "table4" => figs::table4(&p),
            "table5" => figs::table5(&p),
            "fig5" => figs::fig5(&p),
            "fig6" => figs::fig6(&p),
            "fig7" => figs::fig7(&p),
            "fig8" => figs::fig8(&p),
            "fig9" => figs::fig9(&p),
            "fig10" => figs::fig10(&p),
            "fig11" => figs::fig11(&p),
            "fig12" => figs::fig12(&p),
            "fig13" => figs::fig13(&p),
            "fig14" => figs::fig14(&p),
            "fig15" => figs::fig15(&p),
            "ablation" => figs::ablation(&p),
            "batch" => figs::batch(&p),
            "cache" => figs::cache(&p),
            "churn" => figs::churn(&p),
            "refresh" => figs::refresh(&p),
            "refresh-incremental" => figs::refresh_incremental(&p),
            "codec" => figs::codec(&p),
            "obs" => figs::obs(&p),
            "serve" => loadgen::serve(&p),
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        }
        eprintln!("[{w} done in {:.1}s]", start.elapsed().as_secs_f64());
    }
}

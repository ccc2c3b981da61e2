//! `figures [section…]` — print the named sections of the regenerated
//! evaluation (`table1`, `fig2` … `fig10`, `ablation_*`, `tiering`), or
//! with no argument the whole report recorded in `results_run_all.md`.
//! Knobs: MLVC_SCALE, MLVC_MEM_KB, MLVC_STEPS, MLVC_SEED (crate docs).
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    match mlvc_bench::figures::report(&mlvc_bench::Settings::from_env(), &names) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("figures: {e}");
            ExitCode::from(2)
        }
    }
}

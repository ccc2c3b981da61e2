//! Runs the full experiment suite (every table and figure plus the
//! edge-log ablation) and prints one Markdown report — the content
//! recorded in EXPERIMENTS.md.
use mlvc_bench::figures;

fn main() {
    let s = mlvc_bench::Settings::from_env();
    println!("# MultiLogVC — regenerated evaluation");
    println!();
    println!(
        "Settings: scale {} (CF), {} KiB memory, {} supersteps, seed {}.",
        s.scale,
        s.memory_bytes >> 10,
        s.supersteps,
        s.seed
    );
    println!();
    for section in [
        figures::table1(&s),
        figures::fig2(&s),
        figures::fig3(&s),
        figures::fig5(&s),
        figures::fig6(&s),
        figures::fig7(&s),
        figures::fig8(&s),
        figures::fig9(&s),
        figures::fig10(&s),
        figures::ablation_edgelog(&s),
        figures::ablation_channels(&s),
        figures::ablation_async(&s),
        figures::ablation_ftl(&s),
        figures::ablation_checkpoint(&s),
        mlvc_bench::cache_bench::section(&s),
    ] {
        println!("{section}");
    }
}

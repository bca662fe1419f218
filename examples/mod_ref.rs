//! Mod/ref analysis of a suite benchmark — the client application the
//! paper uses to motivate points-to precision (§3.2).
//!
//! ```sh
//! cargo run --example mod_ref [benchmark-name]
//! ```

use alias::modref::mod_ref;
use alias::Analysis;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "part".to_string());
    let bench = suite::by_name(&name)
        .ok_or_else(|| format!("unknown benchmark `{name}`; try `part` or `loader`"))?;

    let analysis = Analysis::of_source(bench.source)?;
    let graph = &analysis.graph;
    let ci = &analysis.ci;
    let summary = mod_ref(graph, ci, &ci.callees).ok_or("CI has per-output pairs")?;

    println!("mod/ref summary for `{name}` (transitive, via the CI solution):\n");
    for f in graph.func_ids() {
        let info = graph.func(f);
        if info.name == "<root>" {
            continue;
        }
        let Some(mr) = summary.transitive.get(&f) else {
            continue;
        };
        let fmt = |set: &std::collections::BTreeSet<alias::PathId>| -> String {
            let mut v: Vec<String> = set.iter().map(|&p| ci.paths.display(p, graph)).collect();
            v.sort();
            if v.len() > 8 {
                format!("{} locations", v.len())
            } else {
                format!("{{{}}}", v.join(", "))
            }
        };
        println!(
            "  {:<16} ref {:<40} mod {}",
            info.name,
            fmt(&mr.refs),
            fmt(&mr.mods)
        );
    }
    Ok(())
}

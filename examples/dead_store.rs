//! Dead-store detection built on the def/use client: an `update` no
//! `lookup` ever observes writes a value the program never reads — the
//! kind of optimization whose quality "depends crucially on the ability
//! to approximate the targets of indirect memory operations" (paper
//! introduction).
//!
//! ```sh
//! cargo run --example dead_store
//! ```

use alias::defuse::def_use;
use alias::Analysis;
use std::collections::HashSet;

const SOURCE: &str = r#"
    int config;
    int scratch;

    void set_config(int *slot, int v) { *slot = v; }

    int main(void) {
        int result;
        set_config(&config, 10);   /* feeds the read below              */
        set_config(&scratch, 99);  /* scratch is never read...          */
        result = config * 2;
        scratch = 5;               /* ...and this direct store is dead  */
        return result;
    }
"#;

// Note what the report shows: the *shared* store inside `set_config` is
// one VDG node writing {config, scratch}; because the `config` call is
// live, the node is live — a context-insensitive client cannot claim the
// `scratch` call's write separately. (And per the paper's headline, the
// context-sensitive analysis would not change the node-level answer
// either: both callers' targets are realizable at that update.) The
// direct `scratch = 5` store, by contrast, is provably dead.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let a = Analysis::of_source(SOURCE)?;
    let du = def_use(&a.graph, &a.ci, &a.ci.callees).ok_or("CI has per-output pairs")?;

    let live: HashSet<vdg::NodeId> = du.uses.values().flatten().copied().collect();
    let file = cfront::SourceFile::new("dead_store.c", SOURCE);

    println!("stores and their liveness (CI points-to + def/use):\n");
    let mut dead = 0;
    for (node, is_write) in a.graph.all_mem_ops() {
        if !is_write {
            continue;
        }
        let span = a.graph.node(node).span;
        let lc = file.line_col(span.start);
        let targets: Vec<String> =
            a.ci.loc_referents(&a.graph, node)
                .iter()
                .map(|&p| a.ci.paths.display(p, &a.graph))
                .collect();
        let status = if live.contains(&node) {
            "live"
        } else {
            dead += 1;
            "DEAD"
        };
        println!(
            "  line {:>2}: write to {{{}}} — {}",
            lc.line,
            targets.join(", "),
            status
        );
    }
    println!("\n{dead} dead store(s) found.");
    Ok(())
}

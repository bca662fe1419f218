//! Compares the context-insensitive and context-sensitive analyses on
//! two programs: one where context-sensitivity genuinely wins at a
//! dereference (easy to construct, as the paper admits), and one in the
//! style of the benchmark suite where all the extra precision lands on
//! dead store pairs and no dereference improves — the paper's headline.
//! `ruf95 paper headline` checks that headline on all thirteen suite
//! programs.
//!
//! ```sh
//! cargo run --example precision_compare
//! cargo run --release -p ruf95 -- paper headline
//! ```

use alias::stats::{compare_at_indirect_refs, spurious_row};
use alias::{Analysis, CsConfig};

const CS_WINS: &str = r#"
    int a; int b;
    int *id(int *p) { return p; }
    int main(void) {
        int *x; int *y;
        x = id(&a);
        y = id(&b);
        return *x + *y;
    }
"#;

const CS_TIES: &str = r#"
    int buffer;
    void fetch(int **slot) { *slot = &buffer; }
    int reader_one(void) { int *r; fetch(&r); return *r; }
    int reader_two(void) { int *r; fetch(&r); return *r; }
    int main(void) { return reader_one() + reader_two(); }
"#;

fn report(title: &str, source: &str) -> Result<(), Box<dyn std::error::Error>> {
    let analysis = Analysis::of_source(source)?;
    let cs = analysis.run_cs(&CsConfig::default())?;
    let graph = &analysis.graph;
    let ci = &analysis.ci;
    let row = spurious_row(graph, ci, &cs);
    let mismatches = compare_at_indirect_refs(graph, ci, &cs);

    println!("== {title} ==");
    println!(
        "  CI pairs: {}   CS pairs: {}   spurious: {:.1}%",
        row.ci_total,
        row.cs.total(),
        row.percent_spurious
    );
    if mismatches.is_empty() {
        println!("  every indirect memory reference is IDENTICAL under CI and CS");
    } else {
        println!("  {} indirect reference(s) differ:", mismatches.len());
        for m in &mismatches {
            println!(
                "    {}: CI {{{}}} vs CS {{{}}}",
                if m.is_write { "write" } else { "read" },
                m.ci_referents.join(", "),
                m.cs_referents.join(", ")
            );
        }
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    report("adversarial program (context-sensitivity wins)", CS_WINS)?;
    report("suite-style program (the paper's headline: a tie)", CS_TIES)?;
    println!(
        "The paper's result: on all thirteen benchmark programs, the second\n\
         pattern dominates — run `cargo run --release -p ruf95 -- paper headline`."
    );
    Ok(())
}

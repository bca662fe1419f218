//! [`SolverSpec::solve`] is the only way to run an analysis outside
//! `crates/alias`. These tests pin its two faces to one another: the dynamic [`Solution`] view every engine
//! consumer queries, and the owned concrete results the `into_*`
//! downcasts hand to typed harnesses — same referent bases at every
//! indirect memory reference, same pair counts where the notion exists.

use alias::solver::Solution;
use alias::SolverSpec;
use vdg::build::{lower, BuildOptions};
use vdg::NodeId;

const PROGRAMS: [&str; 2] = ["span", "part"];

fn graph_of(name: &str) -> vdg::Graph {
    let b = suite::by_name(name).expect("suite program");
    let prog = cfront::compile(b.source).unwrap();
    lower(&prog, &BuildOptions::default()).unwrap()
}

fn sorted_bases(s: &dyn Solution, graph: &vdg::Graph, node: NodeId) -> Vec<vdg::BaseId> {
    let mut v = s.loc_referent_bases(graph, node);
    v.sort();
    v
}

/// Solves `spec` twice through the one unified path and checks the
/// dynamic view against the owned result of `downcast` at every
/// indirect memory reference of both programs.
fn check_spec(spec: &SolverSpec, downcast: impl Fn(Box<dyn Solution>) -> Box<dyn Solution>) {
    for prog in PROGRAMS {
        let graph = graph_of(prog);
        let ci = SolverSpec::ci().solve_ci(&graph);
        let via_trait = spec.solve(&graph, Some(&ci)).unwrap();
        let via_owned = downcast(spec.solve(&graph, Some(&ci)).unwrap());
        assert_eq!(via_trait.analysis(), spec.name());
        assert_eq!(
            via_trait.pairs(),
            via_owned.pairs(),
            "{prog}/{}: pair counts disagree",
            spec.name()
        );
        for (node, _) in graph.indirect_mem_ops() {
            assert_eq!(
                sorted_bases(via_trait.as_ref(), &graph, node),
                sorted_bases(via_owned.as_ref(), &graph, node),
                "{prog}/{}: referent bases disagree at {node:?}",
                spec.name()
            );
        }
    }
}

#[test]
fn ci_downcast_matches_dynamic_view() {
    check_spec(&SolverSpec::ci(), |s| {
        Box::new(s.into_ci().expect("ci result"))
    });
}

#[test]
fn cs_downcast_matches_dynamic_view() {
    check_spec(&SolverSpec::cs(), |s| {
        Box::new(s.into_cs().expect("cs result"))
    });
}

#[test]
fn weihl_downcast_matches_dynamic_view() {
    check_spec(&SolverSpec::weihl(), |s| {
        Box::new(s.into_weihl().expect("weihl result"))
    });
}

#[test]
fn k1_downcast_matches_dynamic_view() {
    check_spec(&SolverSpec::k1(), |s| {
        Box::new(s.into_k1().expect("k1 result"))
    });
}

/// Steensgaard's owned result answers queries through `&mut self`
/// (union-find path compression), so it is compared directly rather
/// than through the `Solution` view.
#[test]
fn steensgaard_downcast_matches_dynamic_view() {
    let spec = SolverSpec::steensgaard();
    for prog in PROGRAMS {
        let graph = graph_of(prog);
        let via_trait = spec.solve(&graph, None).unwrap();
        let mut via_owned = spec
            .solve(&graph, None)
            .unwrap()
            .into_steens()
            .expect("steensgaard result");
        for (node, _) in graph.indirect_mem_ops() {
            let mut t = via_trait.loc_referent_bases(&graph, node);
            t.sort();
            let mut f = via_owned.loc_bases(&graph, node);
            f.sort();
            assert_eq!(t, f, "{prog}/steensgaard: bases disagree at {node:?}");
        }
    }
}

/// A downcast to the wrong analysis refuses instead of lying.
#[test]
fn mismatched_downcasts_return_none() {
    let graph = graph_of("span");
    let ci = SolverSpec::ci().solve_ci(&graph);
    let cs = SolverSpec::cs().solve(&graph, Some(&ci)).unwrap();
    assert!(cs.into_ci().is_none());
    let w = SolverSpec::weihl().solve(&graph, None).unwrap();
    assert!(w.into_cs().is_none());
    let st = SolverSpec::steensgaard().solve(&graph, None).unwrap();
    assert!(st.into_k1().is_none());
    let k1 = SolverSpec::k1().solve(&graph, None).unwrap();
    assert!(k1.into_steens().is_none());
    let c = SolverSpec::ci().solve(&graph, None).unwrap();
    assert!(c.into_weihl().is_none());
}

#[test]
fn by_name_round_trips_and_spectrum_order_is_stable() {
    let names: Vec<&str> = SolverSpec::all().iter().map(|s| s.name()).collect();
    assert_eq!(names, ["weihl", "steensgaard", "ci", "k1", "cs"]);
    for n in names {
        let spec = SolverSpec::by_name(n).unwrap_or_else(|| panic!("no solver `{n}`"));
        assert_eq!(spec.name(), n);
    }
    assert!(SolverSpec::by_name("andersen").is_none());
}

#[test]
fn typed_and_dynamic_paths_share_one_configuration_space() {
    // A knob set on the spec flows through both `solve` and the
    // `solve_ci` projection: turning strong updates off must change
    // both the same way.
    let graph = graph_of("span");
    let weak_spec = SolverSpec::ci().strong_updates(false);
    let weak_typed = weak_spec.solve_ci(&graph);
    let weak_dyn = weak_spec.solve(&graph, None).unwrap();
    assert_eq!(weak_dyn.pairs(), Some(weak_typed.total_pairs()));
    let strong = SolverSpec::ci().solve_ci(&graph);
    assert!(weak_typed.total_pairs() >= strong.total_pairs());
}

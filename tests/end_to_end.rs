//! End-to-end smoke tests of the report pipeline: generate figures, write
//! CSVs, render plots — everything the CLI does, through the library API.

use comb::report::{run_figures_cached, Fidelity, FigureId};

fn tiny_fidelity() -> Fidelity {
    Fidelity {
        per_decade: 1,
        cycles: 3,
        target_iters: 500_000,
        max_intervals: 800,
        jobs: 0,
        shards: 0,
        adaptive: None,
    }
}

#[test]
fn generate_two_figures_with_csv_and_plots() {
    let dir = std::env::temp_dir().join("comb_e2e_results");
    let _ = std::fs::remove_dir_all(&dir);
    let reports = run_figures_cached(
        &[FigureId::Fig10, FigureId::Fig12],
        tiny_fidelity(),
        Some(&dir),
        None,
    )
    .expect("figures run");
    assert_eq!(reports.len(), 2);
    for r in &reports {
        let csv = std::fs::read_to_string(r.csv_path.as_ref().unwrap()).unwrap();
        assert!(csv.lines().count() > 4, "CSV must have data rows");
        assert!(csv.starts_with(&format!("# {}", r.id)));
        let plot = r.plot(60, 14);
        assert!(plot.contains(r.id.title()));
        assert!(!r.checks.is_empty());
    }
    // fig10 has GM and Portals series.
    let fig10 = &reports[0].dataset;
    assert!(fig10.series_by_label("GM").is_some());
    assert!(fig10.series_by_label("Portals").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_figure_id_generates_nonempty_data() {
    // One shared campaign cache; tiny fidelity. This touches all 14 figure
    // definitions end to end.
    let mut campaigns = comb::report::Campaigns::new(tiny_fidelity());
    for id in FigureId::ALL {
        let ds = comb::report::generate(id, &mut campaigns).expect("generate");
        assert!(ds.point_count() > 0, "{id} produced no points");
        assert!(!ds.series.is_empty());
        assert_eq!(ds.id, id.id());
        for s in &ds.series {
            assert!(!s.points.is_empty(), "{id} series {} empty", s.label);
            for p in &s.points {
                assert!(p.x.is_finite() && p.y.is_finite());
                assert!(p.y >= 0.0, "{id} negative y");
            }
        }
    }
}

#[test]
fn facade_reexports_are_usable_together() {
    // The `comb` facade must expose a coherent cross-crate API.
    use comb::hw::{Cluster, HwConfig};
    use comb::mpi::{MpiWorld, Payload, Rank, Tag};
    use comb::sim::Simulation;

    let mut sim = Simulation::new();
    let cluster = Cluster::build(&sim.handle(), &HwConfig::emp_ethernet(), 2);
    let world = MpiWorld::attach(&cluster);
    let (m0, m1) = (world.proc(Rank(0)), world.proc(Rank(1)));
    let probe = sim.probe::<u64>();
    sim.spawn("a", move |ctx| {
        m0.send(ctx, Rank(1), Tag(1), Payload::synthetic(1500 * 3));
    });
    let p = probe.clone();
    sim.spawn("b", move |ctx| {
        let (st, _) = m1.recv(ctx, Rank(0), Tag(1));
        p.set(st.len);
    });
    sim.run().unwrap();
    assert_eq!(probe.get(), Some(4500));
}

//! **Fig. 1(b)** — the motivating example: after a few faults, a
//! spanning-tree design routes neighbours "via the root", turning a 2-hop
//! trip into ~10 hops. This binary searches random faulty topologies for
//! the worst such pair and prints it.

use rand::SeedableRng;
use sb_bench::{Args, Table};
use sb_routing::{MinimalRouting, RouteSource, TreeOnlyRouting};
use sb_topology::{FaultKind, FaultModel, Mesh};

fn main() {
    let args = Args::parse_spec(
        "fig01",
        "worst tree-vs-minimal stretch pairs (the Fig. 1(b) motivation)",
        &[("topos", "20"), ("faults", "10")],
    );
    let topos: u64 = args.get("topos", 20);
    let faults: usize = args.get("faults", 10);
    let mesh = Mesh::new(8, 8);

    let mut table = Table::new(
        "Worst-stretch pairs: minimal vs via-root tree hops",
        &[
            "topology_seed",
            "pair",
            "minimal_hops",
            "tree_hops",
            "stretch",
        ],
    );
    let mut overall_worst = (0.0f64, None);
    for seed in 0..topos {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topo = FaultModel::new(FaultKind::Links, faults).inject(mesh, &mut rng);
        let minimal = MinimalRouting::new(&topo);
        let tree = TreeOnlyRouting::new(&topo);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(0);
        let mut worst: Option<(f64, _, u32, usize)> = None;
        for a in topo.alive_nodes() {
            for b in topo.alive_nodes() {
                if a == b {
                    continue;
                }
                let (Some(m), Some(t)) = (
                    minimal.distance(a, b),
                    tree.route(a, b, &mut rng2).map(|r| r.hops()),
                ) else {
                    continue;
                };
                let stretch = t as f64 / m.max(1) as f64;
                if worst.as_ref().is_none_or(|w| stretch > w.0) {
                    worst = Some((stretch, (a, b), m, t));
                }
            }
        }
        if let Some((stretch, (a, b), m, t)) = worst {
            table.row(&[
                seed.to_string(),
                format!("{a}->{b}"),
                m.to_string(),
                t.to_string(),
                format!("{stretch:.1}x"),
            ]);
            if stretch > overall_worst.0 {
                overall_worst = (stretch, Some((topo.clone(), a, b, m, t)));
            }
        }
    }
    table.print();

    if let (stretch, Some((topo, a, b, m, t))) = overall_worst {
        println!(
            "\nworst overall: {a} -> {b} is {m} hops minimal but {t} hops via the tree ({stretch:.1}x)"
        );
        println!("(the paper's Fig. 1(b) example is 2 vs 10 hops = 5.0x)\n");
        println!("{}", topo.ascii_art());
    }
}

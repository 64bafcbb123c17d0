use sb_scenario::{Design, Scenario, TrafficSpec};
fn main() {
    let mut sim = Scenario::new("repro", Design::StaticBubble)
        .with_mesh(8, 8)
        .with_traffic(TrafficSpec::Uniform {
            rate: 0.10,
            single_vnet: true,
        })
        .with_seed(3)
        .with_threads(8)
        .build();
    sim.run(3_000);
    println!("ok: {}", sim.stats().delivered_packets);
}

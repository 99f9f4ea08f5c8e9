//! Splittable scenario: a render farm.
//!
//! Rendering a shot can be split across any number of nodes and even run in
//! parallel with itself (frames are independent), but a node must first load
//! the shot's scene assets — a batch setup paid per node per shot. This is
//! `P|split,setup=s_i|Cmax`.
//!
//! The example runs the paper's Class-Jumping 3/2-approximation (Theorem 3,
//! `O(n + c log(c+m))`) on a farm with many nodes and shows why the compact
//! configuration output matters: the schedule is described in far fewer
//! records than machines.
//!
//! ```sh
//! cargo run --release --example render_farm
//! ```

use batch_setup_scheduling::prelude::*;

fn main() {
    let nodes = 512;
    let mut builder = InstanceBuilder::new(nodes);
    // (scene-load minutes, per-sequence frame batches in minutes)
    let shots: &[(u64, &[u64])] = &[
        (18, &[400, 380, 350, 900]), // city flyover
        (25, &[1200, 800]),          // ocean storm (heavy sim assets)
        (9, &[150, 140, 130, 120]),  // interior dialogue
        (30, &[2200]),               // battle scene, one huge sequence
        (12, &[300, 280, 260]),      // forest chase
        (6, &[90, 80, 70, 60, 50]),  // title cards
    ];
    for (setup, frames) in shots {
        builder.add_batch(*setup, frames);
    }
    let instance = builder.build().expect("valid instance");

    let solution = solve(&instance, Variant::Splittable, Algorithm::ThreeHalves);
    assert!(validate(solution.schedule(), &instance, Variant::Splittable).is_empty());

    println!(
        "render farm: {} nodes, {} shots, {} sequences, total work {} node-minutes",
        nodes,
        instance.num_classes(),
        instance.num_jobs(),
        instance.total_proc()
    );
    println!(
        "wall-clock finish: {} minutes (accepted guess {}, certified ratio <= {:.4})",
        solution.makespan,
        solution.accepted,
        (solution.makespan / solution.certificate).to_f64()
    );

    let compact = solution.compact().expect("splittable is compact");
    println!(
        "schedule description: {} configuration groups / {} stored records for {} nodes",
        compact.groups().len(),
        compact.stored_items(),
        nodes
    );
    println!("\nfirst configuration groups (node ranges with one shared timeline):");
    for g in compact.groups().take(8) {
        let classes: Vec<String> = g
            .items()
            .map(|it| match it.kind {
                ItemKind::Setup(c) => format!("load(shot {c})"),
                ItemKind::Piece { class, .. } => format!("render(shot {class}, {}m)", it.len),
            })
            .collect();
        println!(
            "  nodes {:>3}..{:<3} x{:<3}: {}",
            g.first_machine,
            g.first_machine + g.count,
            g.count,
            classes.join(" -> ")
        );
    }

    // Contrast with the naive 2-approximation.
    let two = solve(&instance, Variant::Splittable, Algorithm::TwoApprox);
    println!(
        "\n2-approximation finishes at {} ({}% longer)",
        two.makespan,
        ((two.makespan / solution.makespan - 1u64) * 100u64)
            .to_f64()
            .round()
    );
}

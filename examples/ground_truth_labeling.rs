//! Domain example: building a labelled trajectory-clustering benchmark
//! from an unlabelled dataset with the paper's Algorithm 2, then saving
//! it as JSON.
//!
//! Shows the effect of the two parameters: the radius ratio σ (cluster
//! area) and the fallen threshold λ (membership strictness) — the paper's
//! §VI discussion of overlap vs. outliers.
//!
//! ```sh
//! cargo run --release -p e2dtc --example ground_truth_labeling
//! ```

use traj_data::ground_truth::{cluster_radius_m, generate_ground_truth};
use traj_data::io::save_labeled_json;
use traj_data::{GroundTruthConfig, SynthSpec};

fn main() {
    let city = SynthSpec::geolife_like(600, 5).generate();
    println!(
        "raw dataset: {} trajectories, {} POI cluster centers",
        city.dataset.len(),
        city.pois.len()
    );

    // Parameter study: how σ and λ trade coverage against label purity.
    println!("\n σ     λ    radius(m)  labelled  coverage");
    for &sigma in &[0.3, 0.6, 0.9] {
        for &lambda in &[0.5, 0.7, 0.9] {
            let cfg = GroundTruthConfig::new(sigma, lambda);
            let (labelled, _) = generate_ground_truth(&city.dataset, &city.pois, cfg);
            println!(
                " {sigma:.1}   {lambda:.1}   {:>8.0}  {:>8}   {:>5.1}%",
                cluster_radius_m(&city.pois, sigma),
                labelled.len(),
                100.0 * labelled.len() as f64 / city.dataset.len() as f64
            );
        }
    }

    // The paper's setting, saved for downstream use.
    let (labelled, _) =
        generate_ground_truth(&city.dataset, &city.pois, GroundTruthConfig::default());
    let dir = std::env::temp_dir().join("e2dtc_example");
    std::fs::create_dir_all(&dir).expect("create output dir");
    let json = dir.join("geolife_like_labelled.json");
    save_labeled_json(&labelled, &json).expect("write json");
    println!("\nsaved {} labelled trajectories to {}", labelled.len(), json.display());
}

//! Design-choice ablations (DESIGN.md §5), beyond the paper's own Table IV
//! loss ablation:
//!
//! 1. Spatial-proximity loss (Eq. 8, kNN cell weights) vs. plain one-hot
//!    NLL (`α → 0`).
//! 2. k-means++ vs. random centroid initialization for the final
//!    clustering stage.
//!
//! Usage: `ablations [--n <trajectories>] [--seed <s>]`

use e2dtc::{E2dtc, E2dtcConfig};
use e2dtc_bench::datasets::DatasetKind;
use e2dtc_bench::report::{dump_json, dump_text, fmt3, Table};
use e2dtc_bench::setup::RunArgs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use traj_cluster::{kmeans, nmi, uacc, KMeansConfig, Points};

#[derive(Serialize)]
struct Row {
    ablation: String,
    variant: String,
    uacc: f64,
    nmi: f64,
}

fn main() {
    let args = RunArgs::parse();
    let seed = args.seed;
    let n = args.n(400, 400);
    let data = args.dataset("ablations", DatasetKind::Hangzhou, n);
    let k = data.num_clusters;

    let mut rows = Vec::new();
    let mut table = Table::new(&["Ablation", "Variant", "UACC", "NMI"]);
    let push = |rows: &mut Vec<Row>, table: &mut Table, ab: &str, var: &str, u: f64, m: f64| {
        table.row(vec![ab.to_string(), var.to_string(), fmt3(u), fmt3(m)]);
        rows.push(Row { ablation: ab.into(), variant: var.into(), uacc: u, nmi: m });
    };

    // 1. Eq. 8 spatial weights vs. plain NLL.
    for (variant, alpha) in [("Eq.8 kNN weights (alpha=1)", 1.0f32), ("plain NLL (alpha=0)", 0.0)] {
        let mut cfg = E2dtcConfig::fast(k).with_seed(seed);
        cfg.alpha = alpha;
        let mut model = E2dtc::new(&data.dataset, cfg);
        let fit = model.fit(&data.dataset);
        push(
            &mut rows,
            &mut table,
            "reconstruction loss",
            variant,
            uacc(&fit.assignments, &data.labels),
            nmi(&fit.assignments, &data.labels),
        );
    }

    // 2. k-means++ vs. random init on the frozen pretrained embeddings.
    {
        let mut model =
            E2dtc::new(&data.dataset, E2dtcConfig::fast(k).with_seed(seed));
        let _ = model.pretrain(&data.dataset, model.config().pretrain_epochs);
        let emb = model.embed_dataset(&data.dataset);
        let points = Points::new(emb.data(), data.len(), model.repr_dim());
        for (variant, plus_plus) in [("k-means++", true), ("random init", false)] {
            // Mean over restarts so the comparison is about the *expected*
            // quality of one run, which is what init quality changes.
            let (mut u_sum, mut m_sum) = (0.0, 0.0);
            let reps = 8;
            for r in 0..reps {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xABB ^ r);
                let cfg = if plus_plus {
                    KMeansConfig::new(k)
                } else {
                    KMeansConfig::new(k).random_init()
                };
                let res = kmeans(points, cfg, &mut rng);
                u_sum += uacc(&res.assignment, &data.labels);
                m_sum += nmi(&res.assignment, &data.labels);
            }
            push(
                &mut rows,
                &mut table,
                "centroid init",
                variant,
                u_sum / reps as f64,
                m_sum / reps as f64,
            );
        }
    }

    println!("\nDesign ablations (Hangzhou-like, n = {n})\n");
    table.print();
    dump_json("ablations", &rows).expect("write json");
    dump_text("ablations", &table.render()).expect("write text");
    println!("\nartifacts: experiments_out/ablations.{{json,txt}}");
}

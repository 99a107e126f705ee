//! E3 / **Figure 2**: SSL record-length distributions for the two
//! published conditions, over the paper's exact bucket edges.
//!
//! ```sh
//! cargo run --release -p wm-bench --bin fig2_distribution
//! ```

use wm_bench::{bar, graph, run_viewer, viewer, TIME_SCALE};
use wm_capture::labels::RecordClass;
use wm_dataset::OperationalConditions;
use wm_net::conditions::{ConnectionType, LinkConditions, TimeOfDay};
use wm_player::Profile;

/// One figure panel: a condition plus the paper's bucket edges.
struct Panel {
    caption: &'static str,
    profile: Profile,
    /// Inclusive (lo, hi) bucket bounds; u16::MAX = open-ended.
    buckets: [(u16, u16, &'static str); 5],
}

fn panels() -> [Panel; 2] {
    [
        Panel {
            caption: "(Desktop, Firefox, Ethernet, Ubuntu)",
            profile: Profile::ubuntu_firefox_desktop(),
            buckets: [
                (0, 2188, "<=2188"),
                (2211, 2213, "2211-2213"),
                (2219, 2823, "2219-2823"),
                (2992, 3017, "2992-3017"),
                (4334, u16::MAX, ">=4334"),
            ],
        },
        Panel {
            caption: "(Desktop, Firefox, Ethernet, Windows)",
            profile: Profile::windows_firefox_desktop(),
            buckets: [
                (0, 2335, "<=2335"),
                (2341, 2343, "2341-2343"),
                (2398, 3056, "2398-3056"),
                (3118, 3147, "3118-3147"),
                (3159, u16::MAX, ">=3159"),
            ],
        },
    ]
}

const SESSIONS_PER_CONDITION: u64 = 10;

fn main() {
    let graph = graph();
    println!("=== Figure 2 (reproduced): SSL record length distribution ===");
    println!(
        "classes: type-1 JSON / type-2 JSON / others; {} sessions per condition\n",
        SESSIONS_PER_CONDITION
    );

    for panel in panels() {
        // Collect labelled client records for this condition.
        let mut by_class: [Vec<u16>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for seed in 0..SESSIONS_PER_CONDITION {
            let cond = OperationalConditions {
                profile: panel.profile,
                link: LinkConditions::new(ConnectionType::Wired, TimeOfDay::Morning),
            };
            let out = run_viewer(&graph, &viewer(seed as u32, 31_000 + seed, cond));
            for l in &out.labels {
                let idx = match l.class {
                    RecordClass::Type1 => 0,
                    RecordClass::Type2 => 1,
                    RecordClass::Other => 2,
                };
                by_class[idx].push(l.length);
            }
        }

        println!("--- {} ---", panel.caption);
        println!(
            "{:<12} {:>6}  {:>28} {:>28} {:>28}",
            "bucket", "", "type-1 JSON", "type-2 JSON", "others"
        );
        for (lo, hi, label) in panel.buckets {
            print!("{label:<12} {:>6}", "");
            for class_lens in &by_class {
                let total = class_lens.len().max(1);
                let inside = class_lens
                    .iter()
                    .filter(|&&l| l >= lo && (hi == u16::MAX || l <= hi))
                    .count();
                let pct = 100.0 * inside as f64 / total as f64;
                print!("  {:>6.1}% {}", pct, bar(pct, 18));
            }
            println!();
        }
        let totals: Vec<usize> = by_class.iter().map(Vec::len).collect();
        println!(
            "records: {} type-1, {} type-2, {} others\n",
            totals[0], totals[1], totals[2]
        );
    }
    println!("paper: type-1 and type-2 each concentrate 100% in their narrow bucket,");
    println!("distinct per condition, with the 'others' mass spread elsewhere —");
    println!("which is what makes the {TIME_SCALE}x-scaled reproduction's bands classifiable.");
}

//! `tables` — regenerate every table and figure of the paper.
//!
//! ```text
//! tables [--quick] <experiment|all>
//! experiments: table1 table2 table3 table4 table5 table6 table7
//!              fig2 fig3 fig4 fig5 ablation_softfloat ablation_csr
//!              ablation_cache scaling
//! ```
//!
//! Output goes to stdout and to `results/<experiment>.txt`
//! (plus `results/fig2_raster.csv` for the raster data).

use std::fs;
use std::path::Path;

use izhi_bench::{self as bench, Scale};

fn write_result(name: &str, text: &str) {
    println!("{text}");
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_ok() {
        let _ = fs::write(dir.join(format!("{name}.txt")), text);
    }
}

fn run_one(name: &str, scale: Scale) -> bool {
    match name {
        "table1" => write_result("table1", &bench::table1()),
        "table2" => write_result("table2", &bench::table2()),
        "table3" => write_result("table3", &bench::table3()),
        "table4" => write_result("table4", &bench::table4()),
        "table5" => write_result("table5", &bench::table5(scale)),
        "table6" => write_result("table6", &bench::table6(scale)),
        "table7" => write_result("table7", &bench::table7()),
        "fig2" => {
            let (report, csv) = bench::fig2(scale);
            write_result("fig2", &report);
            let _ = fs::create_dir_all("results");
            let _ = fs::write("results/fig2_raster.csv", csv);
        }
        "fig3" => write_result("fig3", &bench::fig3(scale)),
        "fig4" => write_result("fig4", &bench::fig4()),
        "fig5" => write_result("fig5", &bench::fig5()),
        "ablation_softfloat" => write_result("ablation_softfloat", &bench::ablation_softfloat()),
        "ablation_csr" => write_result("ablation_csr", &bench::ablation_csr_writeback()),
        "ablation_cache" => write_result("ablation_cache", &bench::ablation_cache_sweep()),
        "scaling" => write_result("scaling", &bench::scaling_study()),
        _ => return false,
    }
    true
}

const ALL: [&str; 15] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "ablation_softfloat",
    "ablation_csr",
    "ablation_cache",
    "scaling",
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if let Some(pos) = args.iter().position(|a| a == "--quick") {
        args.remove(pos);
        Scale::Quick
    } else {
        Scale::Full
    };
    if args.is_empty() {
        eprintln!("usage: tables [--quick] <{}|all>", ALL.join("|"));
        std::process::exit(2);
    }
    for arg in &args {
        if arg == "all" {
            for name in ALL {
                eprintln!(">>> {name}");
                run_one(name, scale);
            }
        } else if !run_one(arg, scale) {
            eprintln!("unknown experiment `{arg}`");
            std::process::exit(2);
        }
    }
}

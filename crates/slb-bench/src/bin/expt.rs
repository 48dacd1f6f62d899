//! `expt <name> [--scale smoke|laptop|paper] [--seed N]`: runs one
//! experiment of the paper's evaluation (docs/EXPERIMENTS.md maps names to
//! figures). `--help` lists the names; an unknown name or flag exits 2.
//! With `SLB_BENCH_JSON_DIR=<dir>` every table is also written to
//! `<dir>/EXPT_<table>.json`.

use std::path::PathBuf;
use std::process::exit;

use slb_bench::{experiment, parse_options, usage, ParsedArgs};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    if name == "--help" || name == "-h" {
        println!("{}", usage());
        return;
    }
    let Some(run) = experiment(&name) else {
        eprintln!("unknown experiment: {name:?}\n{}", usage());
        exit(2);
    };
    match parse_options(args) {
        Ok(ParsedArgs::Run(mut options)) => {
            options.json_dir = std::env::var_os("SLB_BENCH_JSON_DIR").map(PathBuf::from);
            run(&options);
        }
        Ok(ParsedArgs::Help) => println!("{}", usage()),
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            exit(2);
        }
    }
}

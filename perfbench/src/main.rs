//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its metrics as the last stdout line.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(msvs_perfbench::cli::main_with(&argv, std::env::vars()));
}

//! The benchmark driver; see `bench` with no arguments for usage.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = holistic_perfbench::cli::main_with(&argv, &mut std::io::stdout().lock());
    std::process::exit(code);
}

//! `mocc` — the spec-file CLI. It lives in [`mocc_bench::cli`]; usage
//! is docs/SPECS.md.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    mocc_bench::cli::main(&args)
}

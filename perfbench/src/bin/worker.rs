//! The build-farm worker the benchmark spawns: the same entry point as
//! `warpd-worker` (`parcc::farm::run_worker`), built with the benchmark
//! so that a clean checkout needs no separate build step.

fn usage() -> ! {
    eprintln!("usage: perfbench-worker --connect <unix:PATH|tcp:ADDR> --worker <N>");
    std::process::exit(64);
}

fn main() {
    let mut connect: Option<String> = None;
    let mut worker: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => connect = args.next(),
            "--worker" => worker = args.next().and_then(|s| s.parse().ok()),
            _ => usage(),
        }
    }
    let (Some(connect), Some(worker)) = (connect, worker) else {
        usage();
    };
    std::process::exit(parcc::farm::run_worker(&connect, worker));
}

//! Process-shard worker for the `fleet_chaos` workload. The fleet's
//! process backend looks for a `shard_worker` binary next to the
//! running executable; building it in this package puts it beside the
//! ledger binary.

fn main() {
    std::process::exit(wm_fleet::shard_worker_main());
}

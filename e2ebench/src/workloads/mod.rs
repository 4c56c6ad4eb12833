//! The six workloads. Each sets up from the seed, runs its closed loop
//! for the measuring window, checks every answer against an oracle and,
//! in the traced run, fills in the per-layer metrics it exercises.

use crate::bench::{Ctx, Ops};

mod bound_queries;
mod maintain_churn;
mod net_mix;
mod persistent_mix;
mod shortest_path;
mod tc_closure;

/// Run workload `name`; one `Ops` per closed-loop client.
pub fn run(name: &str, ctx: &mut Ctx) -> Vec<Ops> {
    match name {
        "tc_closure" => vec![tc_closure::run(ctx)],
        "bound_queries" => vec![bound_queries::run(ctx)],
        "shortest_path" => vec![shortest_path::run(ctx)],
        "maintain_churn" => vec![maintain_churn::run(ctx)],
        "persistent_mix" => vec![persistent_mix::run(ctx)],
        "net_mix" => net_mix::run(ctx),
        other => unreachable!("workload {other} is checked against the spec before dispatch"),
    }
}

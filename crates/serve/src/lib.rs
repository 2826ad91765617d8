//! Transpose-as-a-service: a fault-tolerant TCP front-end over the
//! resilient pipeline.
//!
//! The crate is deliberately small and dependency-free, like the rest of
//! the workspace:
//!
//! * [`protocol`] — the `STM1` length-prefixed binary wire protocol
//!   (frames, opcodes, typed statuses);
//! * [`store`] — the durable, torn-tail-tolerant results log that
//!   survives `kill -9`;
//! * [`server`] — the `stmserve` server: requests execute on their
//!   connection threads under a bounded number of permits, with a
//!   bounded waiting line, per-client quotas, circuit-breaker degradation through
//!   `stm_bench::resilient::execute_slot`, load shedding, clean drain;
//! * [`client`] — a blocking client;
//! * [`load`] — the `stmload` chaos-injecting load harness with
//!   digest verification against host oracles;
//! * [`flight`] — the always-on crash flight recorder: a bounded ring
//!   of recent service events, dumped atomically to JSONL on panic,
//!   breaker-open, deadline storms, or `SIGTERM`;
//! * [`scrape`] — a minimal Prometheus scrape client over the
//!   `--metrics-addr` exposition listener (used by `stmtop` and
//!   `stmload`).
//!
//! See DESIGN.md §13 for the architecture and the wire format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod flight;
pub mod load;
pub mod protocol;
pub mod scrape;
pub mod server;
pub mod store;

pub use client::Client;
pub use load::{run_load, LoadConfig, LoadReport};
pub use protocol::{Op, Request, RequestBody, Response, ResponseBody, Status};
pub use server::{ServeConfig, Server, StatsSnapshot};
pub use store::{ResultRecord, ResultsLog};

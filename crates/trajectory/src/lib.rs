//! # rv-trajectory — mobile-agent program substrate
//!
//! The paper's `go(dir, d)` / `wait(z)` instruction model (Section 1.2) as
//! lazy, possibly infinite instruction streams, plus the combinators
//! Algorithm 1 needs (frame rotation, exact truncation by local time,
//! backtracking, slice-with-waits interleaving) and the kinematic compiler
//! that turns a program plus private agent attributes into an
//! absolute-time piecewise-linear [`Segment`] stream with **exact rational
//! event times**.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod instr;
mod kinematics;
mod program;

pub use compiled::{CompiledProgram, Cursor, Tape, MAX_MATERIALIZED};
pub use instr::Instr;
pub use kinematics::{AgentAttrs, Leg, Motion, Segment, StepSource, DIR_SLOTS};
pub use program::{
    backtrack, lazy, net_local_displacement, rotated, slice_interleave_backtrack, take_local_time,
    total_local_time, BoxProgram, Lazy, TakeLocalTime,
};

//! Error types for graph construction and IO.

use std::fmt;

use crate::ids::TaskId;

/// Errors produced while building or parsing a [`crate::TaskGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint refers to a task id that was never added.
    UnknownTask(TaskId),
    /// An edge `from == to` was added; self-loops are precedence cycles.
    SelfLoop(TaskId),
    /// The same directed edge was added twice.
    DuplicateEdge(TaskId, TaskId),
    /// The edge set contains a cycle; the payload is one task on it.
    Cycle(TaskId),
    /// The graph has no tasks.
    Empty,
    /// Σ task loads + Σ edge weights exceeds
    /// [`MAX_TOTAL_WORK`](crate::builder::MAX_TOTAL_WORK) ns, so a path
    /// sum could wrap in `u64` or lose precision as an `f64` cost.
    TooMuchWork {
        /// The offending sum, in ns (wide enough never to wrap itself).
        total: u128,
    },
    /// A parse error from the plain-text format, with a line number.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownTask(t) => write!(f, "unknown task {t}"),
            GraphError::SelfLoop(t) => write!(f, "self-loop on task {t}"),
            GraphError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            GraphError::Cycle(t) => write!(f, "precedence cycle through task {t}"),
            GraphError::Empty => write!(f, "task graph has no tasks"),
            GraphError::TooMuchWork { total } => write!(
                f,
                "task loads plus edge weights total {total} ns, above the 2^53 ns limit"
            ),
            GraphError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let t = TaskId::from_index(3);
        assert_eq!(GraphError::UnknownTask(t).to_string(), "unknown task t3");
        assert_eq!(GraphError::SelfLoop(t).to_string(), "self-loop on task t3");
        assert_eq!(
            GraphError::DuplicateEdge(t, TaskId::from_index(4)).to_string(),
            "duplicate edge t3 -> t4"
        );
        assert_eq!(
            GraphError::Cycle(t).to_string(),
            "precedence cycle through task t3"
        );
        assert_eq!(GraphError::Empty.to_string(), "task graph has no tasks");
        assert_eq!(
            GraphError::TooMuchWork { total: 1 << 54 }.to_string(),
            "task loads plus edge weights total 18014398509481984 ns, above the 2^53 ns limit"
        );
        let p = GraphError::Parse {
            line: 7,
            msg: "bad token".into(),
        };
        assert_eq!(p.to_string(), "parse error at line 7: bad token");
    }
}

//! Operation vocabulary and per-thread programs.

use std::fmt;

use sw_pmem::Addr;

/// A logical (software) thread index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub usize);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// One dynamic operation in a thread's program.
///
/// The vocabulary covers the primitives of every hardware design in the
/// paper's evaluation. A given [`MemoryModel`](crate::MemoryModel) interprets
/// only the primitives it defines and treats the others as no-ops, so the
/// same program can be replayed under several models (useful for the
/// cross-design litmus and crash tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Load a word from PM (or DRAM).
    Load {
        /// Address read.
        addr: Addr,
    },
    /// Store a word. Stores to persistent addresses eventually persist.
    Store {
        /// Address written.
        addr: Addr,
        /// Value written.
        value: u64,
    },
    /// StrandWeaver persist barrier: orders persists *within* a strand
    /// (paper Equation 1).
    PersistBarrier,
    /// StrandWeaver `NewStrand`: begins a new strand; subsequent PM
    /// operations are unordered with everything before it (Equation 1's side
    /// condition).
    NewStrand,
    /// StrandWeaver `JoinStrand`: all prior persists on the thread complete
    /// before any subsequent persist issues (Equation 2).
    JoinStrand,
    /// Intel x86 `SFENCE`: epoch boundary; orders all prior persists before
    /// all subsequent persists on the thread, and stalls visibility of
    /// subsequent stores until prior flushes complete.
    Sfence,
    /// HOPS `ofence`: lightweight epoch boundary — orders persists without
    /// stalling for durability.
    Ofence,
    /// HOPS `dfence`: durable epoch boundary — orders persists *and* stalls
    /// until prior epochs have drained.
    Dfence,
}

impl OpKind {
    /// Convenience constructor for a store.
    pub fn store(addr: Addr, value: u64) -> Self {
        OpKind::Store { addr, value }
    }

    /// Convenience constructor for a load.
    pub fn load(addr: Addr) -> Self {
        OpKind::Load { addr }
    }
}

/// An operation tagged with its position: thread and program-order index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    /// Thread the operation belongs to.
    pub thread: ThreadId,
    /// Program-order index within the thread (0-based).
    pub index: usize,
    /// The operation itself.
    pub kind: OpKind,
}

/// A multi-threaded program: one operation list per thread.
///
/// # Example
///
/// ```
/// use sw_model::{OpKind, Program};
/// use sw_pmem::Addr;
///
/// let mut p = Program::new(2);
/// p.push(0, OpKind::store(Addr(0x1000_0000), 1));
/// p.push(1, OpKind::store(Addr(0x1000_0040), 2));
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.thread_ops(0).len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    threads: Vec<Vec<OpKind>>,
}

impl Program {
    /// Creates a program with `threads` empty threads.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: vec![Vec::new(); threads],
        }
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Total number of operations across all threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// Returns `true` if no thread has any operation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `op` to thread `tid`'s program and returns its program-order
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn push(&mut self, tid: usize, op: OpKind) -> usize {
        let ops = &mut self.threads[tid];
        ops.push(op);
        ops.len() - 1
    }

    /// The operations of thread `tid` in program order.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn thread_ops(&self, tid: usize) -> &[OpKind] {
        &self.threads[tid]
    }

    /// Looks up one operation.
    ///
    /// # Panics
    ///
    /// Panics if `tid` or `index` is out of range.
    pub fn op(&self, tid: usize, index: usize) -> Op {
        Op {
            thread: ThreadId(tid),
            index,
            kind: self.threads[tid][index],
        }
    }

    /// For a single-threaded program, the unique execution (program order).
    ///
    /// # Panics
    ///
    /// Panics if the program has more than one non-empty thread.
    pub fn single_threaded_execution(&self) -> crate::Execution {
        let non_empty = self.threads.iter().filter(|t| !t.is_empty()).count();
        assert!(
            non_empty <= 1,
            "program is multi-threaded; enumerate or sample interleavings"
        );
        let tid = self.threads.iter().position(|t| !t.is_empty()).unwrap_or(0);
        let order = (0..self.threads.get(tid).map_or(0, Vec::len))
            .map(|index| crate::OpRef {
                thread: ThreadId(tid),
                index,
            })
            .collect();
        crate::Execution::new(self.clone(), order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_returns_indices() {
        let mut p = Program::new(1);
        assert_eq!(p.push(0, OpKind::PersistBarrier), 0);
        assert_eq!(p.push(0, OpKind::NewStrand), 1);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn op_lookup() {
        let mut p = Program::new(2);
        p.push(1, OpKind::store(Addr(64), 9));
        let op = p.op(1, 0);
        assert_eq!(op.thread, ThreadId(1));
        assert_eq!(op.index, 0);
        assert_eq!(op.kind, OpKind::store(Addr(64), 9));
    }

    #[test]
    fn empty_program() {
        let p = Program::new(3);
        assert!(p.is_empty());
        assert_eq!(p.num_threads(), 3);
    }

    #[test]
    #[should_panic(expected = "multi-threaded")]
    fn single_threaded_execution_rejects_multithreaded() {
        let mut p = Program::new(2);
        p.push(0, OpKind::PersistBarrier);
        p.push(1, OpKind::PersistBarrier);
        p.single_threaded_execution();
    }
}

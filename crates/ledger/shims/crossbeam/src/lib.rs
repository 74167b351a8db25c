//! Std-only stand-in for `crossbeam`: the workspace uses only
//! `channel::bounded` with one sender side and one receiver, which
//! `std::sync::mpsc::sync_channel` provides with the same blocking
//! semantics (including the capacity-0 rendezvous).

/// Multi-producer channels.
pub mod channel {
    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError};

    /// Sending half; cloneable.
    pub type Sender<T> = std::sync::mpsc::SyncSender<T>;
    /// Receiving half.
    pub type Receiver<T> = std::sync::mpsc::Receiver<T>;

    /// A channel holding at most `cap` queued messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::sync_channel(cap)
    }
}

//! A write-only console device, useful for kernel log assertions.

use crate::sync::Mutex;

/// The console: an append-only byte sink.
#[derive(Default)]
pub struct Console {
    buf: Mutex<Vec<u8>>,
}

impl Console {
    /// A fresh, empty console.
    pub fn new() -> Console {
        Console::default()
    }

    /// Append bytes.
    pub fn write(&self, bytes: &[u8]) {
        self.buf.lock().extend_from_slice(bytes);
    }

    /// Append a string followed by a newline.
    pub fn write_line(&self, s: &str) {
        let mut buf = self.buf.lock();
        buf.extend_from_slice(s.as_bytes());
        buf.push(b'\n');
    }

    /// Snapshot the full log as UTF-8 (lossy).
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.buf.lock()).into_owned()
    }

    /// True if the log contains `needle`.
    pub fn contains(&self, needle: &str) -> bool {
        self.contents().contains(needle)
    }

    /// Number of bytes logged.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logs_accumulate() {
        let c = Console::new();
        assert!(c.is_empty());
        c.write_line("nimbus booting");
        c.write(b"ok");
        assert!(c.contains("nimbus booting"));
        assert!(c.contents().ends_with("ok"));
        assert_eq!(c.len(), "nimbus booting\nok".len());
    }
}

//! Crash-safe filesystem writes.
//!
//! Every artifact the `reproduce` binary persists — run exports, profile
//! reports, bench reports, checkpoints — goes through [`write_atomic`]:
//! the bytes land in a same-directory temp file which is then renamed over
//! the final path. A reader (or a resumed run) therefore sees either the
//! complete old contents or the complete new contents, never a torn file,
//! no matter when the writing process is killed.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process sequence for temp names; with the pid it makes every
/// call's temp file distinct.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `contents` to `path` atomically: write a temp file in the same
/// directory (rename is only atomic within a filesystem), then rename it
/// over the destination. Every call writes its own temp file (named by
/// pid and a process-wide counter), so concurrent writers — to the same
/// destination or different ones, in one process or several — never
/// collide; the last rename wins.
///
/// # Errors
/// Propagates the underlying filesystem error; a partially-written temp
/// file is removed, the destination is never touched.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let file_name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("write_atomic: no file name in '{}'", path.display()),
        )
    })?;
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".{file_name}.{}.{seq}.tmp", std::process::id()));
    if let Err(e) = std::fs::write(&tmp, contents) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_overwrites_without_leftovers() {
        let dir = std::env::temp_dir().join(format!("fsio-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");

        write_atomic(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");

        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_to_one_path_never_collide() {
        let dir = std::env::temp_dir().join(format!("fsio-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("status.json");
        let written: Vec<String> = (0..8)
            .flat_map(|t| (0..50).map(move |i| format!("writer {t} write {i}")))
            .collect();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (path, start, written) = (&path, &start, &written);
                s.spawn(move || {
                    start.wait();
                    for contents in &written[t * 50..(t + 1) * 50] {
                        write_atomic(path, contents).expect("concurrent write_atomic");
                    }
                });
            }
        });
        let last = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains(&last), "torn or foreign content: {last:?}");
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries, ["status.json"], "temp files left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_pathological_destination() {
        assert!(write_atomic(Path::new("/"), "x").is_err());
    }
}

//! Atomic artifact writes.
//!
//! Every exported artifact goes through one of two functions, which
//! differ only in what survives a crash of the machine:
//!
//! * [`atomic_write`] — figure CSVs, Chrome traces, failure manifests:
//!   the bytes are fsynced before the rename, so after a crash of the
//!   operating system or a power loss the path holds either the previous
//!   complete artifact or the new complete artifact, never a truncated
//!   half-file that a downstream plotting script would silently misread.
//! * [`atomic_write_unsynced`] — cell-cache entries: the same temp file
//!   and rename, without the fsync. Readers and a crashed *process* still
//!   see the old file or the new one, whole; only a machine crash can
//!   leave the path missing, empty or partial. That is for data that
//!   validates itself on read and can be recomputed: a cache entry carries
//!   a checksum, so a lost entry is a miss, not a wrong answer.
//!
//! Both write a hidden temp file in the destination directory, named
//! `.<name>.<pid>.<n>.tmp` with `n` a process-wide counter, so writers of
//! the same path in one process or in several never share a temp file:
//! each rename publishes bytes one writer wrote whole.

use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A temp-file name for writing `path` that no other write in this
/// process, or in any other live process, uses.
fn tmp_path(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!(".{name}.{}.{n}.tmp", std::process::id()))
}

/// Write `contents` to `path` atomically and durably: temp file in the
/// same directory, flush + fsync, then rename over the target. The rename
/// is atomic on POSIX filesystems, so concurrent readers (and post-crash
/// resumers) observe either the old file or the new one, whole.
pub fn atomic_write(path: &Path, contents: &[u8]) -> io::Result<()> {
    write_via_temp(path, contents, File::sync_all)
}

/// Write `contents` to `path` atomically but not durably: temp file in
/// the same directory, then rename over the target, with no fsync.
/// Concurrent readers, and readers after the writing process dies,
/// observe the old file or the new one, whole. After a crash of the
/// machine the path may hold the old file, nothing, or a partial new
/// file, so use this only for data that its readers validate and can
/// rebuild (the cell cache's checksummed entries).
pub fn atomic_write_unsynced(path: &Path, contents: &[u8]) -> io::Result<()> {
    write_via_temp(path, contents, |_| Ok(()))
}

/// Write `contents` to a fresh temp sibling of `path`, run `finish` on
/// the open file, and rename the temp file over `path`.
fn write_via_temp(
    path: &Path,
    contents: &[u8],
    finish: impl FnOnce(&File) -> io::Result<()>,
) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_path(path);
    // The closure drops the file, closing it before the rename (required
    // on platforms that refuse to rename open files).
    let written = File::create(&tmp).and_then(|mut f| {
        f.write_all(contents)?;
        finish(&f)
    });
    match written.and_then(|()| std::fs::rename(&tmp, path)) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Don't leave the temp file behind on failure.
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// [`atomic_write`] for string artifacts (CSV, JSON, Markdown).
pub fn atomic_write_str(path: &Path, contents: &str) -> io::Result<()> {
    atomic_write(path, contents.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("comb_fsio_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn writes_new_file_and_replaces_existing() {
        type Write = fn(&Path, &[u8]) -> io::Result<()>;
        for (i, write) in [atomic_write as Write, atomic_write_unsynced]
            .into_iter()
            .enumerate()
        {
            let path = scratch(&format!("artifact{i}.csv"));
            write(&path, b"first\n").unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), "first\n");
            write(&path, b"second\n").unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn creates_missing_parent_directories() {
        let dir = scratch("nested").join("deeper");
        let path = dir.join("out.json");
        let _ = std::fs::remove_dir_all(&dir);
        atomic_write_str(&path, "{}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leaves_no_temp_file_behind() {
        let path = scratch("clean.csv");
        atomic_write_str(&path, "data\n").unwrap();
        let dir = path.parent().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                // Only this test's temp files: others write in this directory
                // concurrently.
                let name = e.file_name().to_string_lossy().into_owned();
                name.starts_with(".clean.csv.") && name.ends_with(".tmp")
            })
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn temp_names_are_unique_per_write() {
        let path = scratch("unique.csv");
        let (a, b) = (tmp_path(&path), tmp_path(&path));
        assert_ne!(a, b);
        let name = a.file_name().unwrap().to_string_lossy().into_owned();
        let pid = std::process::id().to_string();
        assert!(
            name.starts_with(".unique.csv.") && name.ends_with(".tmp"),
            "{name}"
        );
        assert!(name.contains(&format!(".{pid}.")), "{name}");
    }

    #[test]
    fn concurrent_writers_of_one_path_never_fail_or_tear() {
        // Two writers replace one path over and over while a reader reads
        // it. With a temp name shared between writers, one truncates the
        // other's half-written file and renames fail or publish partial
        // bytes; with per-write temp names every rename publishes one
        // writer's whole payload.
        const WRITES: usize = 300;
        let dir = std::env::temp_dir().join(format!("comb_fsio_race_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("entry");
        let payloads = [vec![b'a'; 64 * 1024], vec![b'b'; 48 * 1024]];
        atomic_write_unsynced(&path, &payloads[0]).unwrap();

        let start = std::sync::Barrier::new(3);
        let writing = AtomicU64::new(2);
        let (errors, (reads, torn)) = std::thread::scope(|s| {
            let writers: Vec<_> = payloads
                .iter()
                .map(|payload| {
                    let (start, writing, path) = (&start, &writing, &path);
                    s.spawn(move || {
                        start.wait();
                        let errors = (0..WRITES)
                            .filter(|_| atomic_write_unsynced(path, payload).is_err())
                            .count();
                        writing.fetch_sub(1, Ordering::SeqCst);
                        errors
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                start.wait();
                let (mut reads, mut torn) = (0usize, 0usize);
                while writing.load(Ordering::SeqCst) > 0 {
                    let got = std::fs::read(&path).expect("the path always exists");
                    reads += 1;
                    if !payloads.contains(&got) {
                        torn += 1;
                    }
                }
                (reads, torn)
            });
            let errors: usize = writers
                .into_iter()
                .map(|w| w.join().expect("writer panicked"))
                .sum();
            (errors, reader.join().expect("reader panicked"))
        });
        assert_eq!(errors, 0, "failed writes");
        assert_eq!(torn, 0, "torn reads out of {reads}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name())
            .filter(|n| n != "entry")
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

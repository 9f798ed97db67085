//! Crash-safe artifact writes.
//!
//! Every exported artifact (figure CSVs, Chrome traces, cache entries,
//! failure manifests) goes through [`atomic_write`]: the bytes land in a
//! hidden temporary file in the destination directory, are fsynced, and
//! are then renamed over the target. A crash mid-export therefore leaves
//! either the previous complete artifact or the new complete artifact —
//! never a truncated half-file that a resumed campaign or a downstream
//! plotting script would silently misread.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Name of the temporary sibling used while writing `path`.
fn tmp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    path.with_file_name(format!(".{name}.tmp"))
}

/// Write `contents` to `path` atomically: temp file in the same
/// directory, flush + fsync, then rename over the target. The rename is
/// atomic on POSIX filesystems, so concurrent readers (and post-crash
/// resumers) observe either the old file or the new one, whole.
pub fn atomic_write(path: &Path, contents: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_path(path);
    // Scoped so the file is closed before the rename (required on
    // platforms that refuse to rename open files).
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
    }
    match std::fs::rename(&tmp, path) {
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
        let path = scratch("artifact.csv");
        atomic_write_str(&path, "first\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first\n");
        atomic_write_str(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        let _ = std::fs::remove_file(&path);
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
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        let _ = std::fs::remove_file(&path);
    }
}

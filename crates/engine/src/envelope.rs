//! The one on-disk format: a versioned, checksummed envelope around a
//! single-line JSON payload.
//!
//! ```text
//! <magic> v<version> <fnv64-of-payload, 16 hex digits>
//! { ...payload JSON on one line... }
//! ```
//!
//! `serve::store` project files (`ruf95-store`) and campaign journals
//! (`ruf95-campaign`) both use it. Files are written atomically —
//! temp file, `sync_all`, rename — so a crash mid-write leaves the
//! previous file intact. Loading never panics: a file that is
//! unreadable, has a wrong header, version or checksum, or whose
//! payload does not decode becomes [`Load::Rejected`], which callers
//! treat as a fresh start.

use alias::fingerprint::fnv64;
use proto::json::Value;
use proto::{fp_hex, parse_fp_hex};
use std::ffi::OsString;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// What [`load`] found.
#[derive(Debug)]
pub enum Load<T> {
    /// The verified, decoded payload.
    Loaded(T),
    /// No file on disk.
    Missing,
    /// The file exists but is unusable; the reason says why.
    Rejected(String),
}

/// Writes `bytes` to `path` atomically: a sibling `<path>.tmp` is
/// written and synced, then renamed over `path`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    replace(path, |f| f.write_all(bytes))
}

/// Persists `payload` under a `<magic> v<version> <checksum>` header.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn save(path: &Path, magic: &str, version: u32, payload: &Value) -> io::Result<()> {
    let payload = payload.render();
    let header = format!("{magic} v{version} {}", fp_hex(fnv64(payload.as_bytes())));
    // Header and payload are written separately: payloads run to
    // megabytes, and joining them first would double the peak memory.
    replace(path, |f| {
        writeln!(f, "{header}")?;
        writeln!(f, "{payload}")
    })
}

/// Fills a sibling `<path>.tmp` with `write`, syncs it, and renames it
/// over `path`, so a crash mid-write leaves the previous file intact.
fn replace(path: &Path, write: impl FnOnce(&mut fs::File) -> io::Result<()>) -> io::Result<()> {
    let mut tmp = OsString::from(path.as_os_str());
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        write(&mut f)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Reads and verifies a file written by [`save`] with the same `magic`
/// and `version`, then hands the payload to `decode`; `None` from
/// `decode` rejects the file as incomplete.
pub fn load<T>(
    path: &Path,
    magic: &str,
    version: u32,
    decode: impl FnOnce(Value) -> Option<T>,
) -> Load<T> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Load::Missing,
        Err(e) => return Load::Rejected(format!("unreadable: {e}")),
    };
    let Some((header, payload)) = text.split_once('\n') else {
        return Load::Rejected("truncated: no payload line".into());
    };
    let fields: Vec<&str> = header.split(' ').collect();
    if fields.len() != 3 || fields[0] != magic {
        return Load::Rejected(format!("bad header {header:?}"));
    }
    if fields[1] != format!("v{version}") {
        return Load::Rejected(format!(
            "version mismatch: file is {}, want v{version}",
            fields[1]
        ));
    }
    let Some(expected) = parse_fp_hex(fields[2]) else {
        return Load::Rejected(format!("bad checksum field {:?}", fields[2]));
    };
    let payload = payload.trim_end_matches('\n');
    if fnv64(payload.as_bytes()) != expected {
        return Load::Rejected("checksum mismatch (corrupt or truncated payload)".into());
    }
    let value = match Value::parse(payload) {
        Ok(v) => v,
        Err(e) => return Load::Rejected(format!("malformed payload: {e}")),
    };
    match decode(value) {
        Some(t) => Load::Loaded(t),
        None => Load::Rejected("incomplete payload (schema drift within this version?)".into()),
    }
}

//! The expected answer of every request, computed outside the timed
//! window: one-shot `ptk sql` output through the public
//! `ptk_cli::commands::dispatch` for statements (the daemon's contract is
//! byte identity with it), and the codec's own `bad_request` error for
//! malformed HTTP.

use std::path::Path;

use ptk_serve::http::{read_request, ReadError};

use crate::stream::{Entry, Kind};

/// The status and body a request must be answered with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// HTTP status.
    pub status: u16,
    /// Exact body bytes.
    pub body: Vec<u8>,
}

/// The expected answer of `entry` against the table in `csv`, from
/// one-shot `ptk sql` at the daemon's pool width (batch headers name the
/// thread count). A request
/// whose one-shot result contradicts its kind (a valid statement that
/// errors, a malformed one that succeeds) gets a status no response can
/// have, so every response to it fails the check.
pub fn expected(entry: &Entry, csv: &Path, threads: usize) -> Expected {
    const CONTRADICTION: u16 = 0;
    match entry.kind {
        Kind::HttpError => {
            let max_bytes = ptk_serve::ServerConfig::default().max_request_bytes;
            match read_request(&mut &entry.request[..], max_bytes) {
                Err(ReadError::BadRequest(message)) => Expected {
                    status: 400,
                    body: ptk_serve::error_body("bad_request", &message).into_bytes(),
                },
                other => Expected {
                    status: CONTRADICTION,
                    body: format!("codec read {other:?}").into_bytes(),
                },
            }
        }
        kind => {
            let args = [
                "sql".to_owned(),
                csv.display().to_string(),
                entry.statement.clone(),
                "--threads".to_owned(),
                threads.to_string(),
            ];
            match (ptk_cli::commands::dispatch(&args), kind.is_error()) {
                (Ok(out), false) => Expected {
                    status: 200,
                    body: out.into_bytes(),
                },
                (Err(message), true) => Expected {
                    status: 400,
                    body: ptk_serve::error_body("query", &message).into_bytes(),
                },
                (result, _) => Expected {
                    status: CONTRADICTION,
                    body: format!("one-shot ptk sql gave {result:?}").into_bytes(),
                },
            }
        }
    }
}

/// [`expected`] for each of `wanted` (indices into `entries`), computed on
/// `threads` threads at pool width `threads`; the result is indexed like
/// `entries`.
pub fn expected_all(
    entries: &[Entry],
    wanted: &[usize],
    csv: &Path,
    threads: usize,
) -> Vec<Option<Expected>> {
    let mut out: Vec<Option<Expected>> = vec![None; entries.len()];
    let threads = threads.max(1);
    let results: Vec<Vec<(usize, Expected)>> = std::thread::scope(|scope| {
        // Strided, so the costly statements spread over the threads.
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    wanted
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|&i| (i, expected(&entries[i], csv, threads)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("expected-answer worker panicked"))
            .collect()
    });
    for (i, e) in results.into_iter().flatten() {
        out[i] = Some(e);
    }
    out
}

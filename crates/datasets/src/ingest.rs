//! Streaming ingestion of SNAP-format signed edge lists, and the
//! matching writer.
//!
//! The [Stanford SNAP](https://snap.stanford.edu/data/) signed-network
//! dumps used by the paper (`soc-sign-epinions.txt`, ~841k edges;
//! `soc-sign-Slashdot090221.txt`, ~549k) are whitespace-separated
//! triples with `#` comment lines:
//!
//! ```text
//! # Directed signed network of Epinions
//! # FromNodeId  ToNodeId  Sign
//! 0   1   -1
//! 2   3   1
//! ```
//!
//! Real files contain comment banners, self-loops, duplicate edges and
//! the odd malformed line, and a loader that either aborts or silently
//! drops them is useless for auditing what was actually ingested.
//! [`load_snap`] is built for that:
//!
//! * one reusable byte buffer for the whole stream — no per-line `String`
//!   allocations, no UTF-8 validation pass (ids and signs are ASCII);
//! * integer parsing straight off the byte slice;
//! * explicit policy for malformed lines ([`MalformedPolicy`]) instead of
//!   a hardcoded abort;
//! * a [`LoadReport`] accounting for every input line: comments, blanks,
//!   self-loops, duplicates and malformed lines are counted, never
//!   silently discarded;
//! * direct-to-CSR construction through
//!   [`SignedDigraph::from_edge_vec`], skipping the incremental builder.
//!
//! [`write_snap`] emits the same format, headed by a node-count comment
//! (`# Directed signed network: N nodes, M edges`) that the loader reads
//! back, so graphs with trailing isolated nodes round-trip exactly:
//! `load(write(g)) == g` for unit-weight graphs.

use isomit_graph::{Edge, GraphError, NodeId, Sign, SignedDigraph};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// What [`load_snap`] should do with a line it cannot parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MalformedPolicy {
    /// Abort with [`GraphError::Parse`] naming the offending line — the
    /// right default for curated inputs.
    #[default]
    Error,
    /// Skip the line and count it in [`LoadReport::malformed_lines`] —
    /// for raw dumps where a handful of damaged lines should not kill a
    /// multi-minute ingestion run.
    Skip,
}

/// Ingestion options for [`load_snap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadOptions {
    /// Policy for unparseable lines.
    pub malformed: MalformedPolicy,
    /// Lower bound on the node count of the produced graph (the SNAP
    /// format itself cannot express trailing isolated nodes outside the
    /// generated header comment).
    pub min_nodes: usize,
    /// Pre-allocation hint for the edge vector; `0` lets it grow
    /// organically.
    pub edge_capacity: usize,
}

impl LoadOptions {
    /// Options for raw real-world dumps: malformed lines are counted and
    /// skipped rather than aborting the run.
    pub fn lenient() -> Self {
        LoadOptions {
            malformed: MalformedPolicy::Skip,
            ..Self::default()
        }
    }
}

/// Per-line accounting of one [`load_snap`] run: everything the loader
/// dropped, and why, plus the shape of the graph it produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Total input lines seen (including the final line without `\n`).
    pub total_lines: u64,
    /// Lines starting with `#` after whitespace trimming.
    pub comment_lines: u64,
    /// Empty or whitespace-only lines.
    pub blank_lines: u64,
    /// Well-formed edge lines accepted into the edge list (before
    /// duplicate resolution).
    pub parsed_edges: u64,
    /// Well-formed edge lines dropped because `src == dst` (self-trust
    /// carries no diffusion; the paper drops them too).
    pub self_loops: u64,
    /// Accepted edges that lost a duplicate-`(src, dst)` resolution
    /// (last occurrence wins, matching the builder's rule).
    pub duplicate_edges: u64,
    /// Lines skipped under [`MalformedPolicy::Skip`]; always `0` under
    /// [`MalformedPolicy::Error`].
    pub malformed_lines: u64,
    /// Node count of the produced graph.
    pub nodes: usize,
    /// Edge count of the produced graph (after duplicate resolution).
    pub edges: usize,
}

impl LoadReport {
    /// Total lines that did not contribute an edge to the final graph.
    pub fn dropped_lines(&self) -> u64 {
        self.comment_lines
            + self.blank_lines
            + self.self_loops
            + self.duplicate_edges
            + self.malformed_lines
    }
}

/// Splits `line` into at most 4 ASCII-whitespace-separated fields;
/// returns the field count actually present.
fn split_fields<'a>(line: &'a [u8], fields: &mut [&'a [u8]; 4]) -> usize {
    let mut count = 0;
    let mut i = 0;
    while i < line.len() && count < 4 {
        while line.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
            i += 1;
        }
        if i >= line.len() {
            break;
        }
        let start = i;
        while line.get(i).is_some_and(|b| !b.is_ascii_whitespace()) {
            i += 1;
        }
        if let Some(slot) = fields.get_mut(count) {
            *slot = line.get(start..i).unwrap_or(&[]);
        }
        count += 1;
    }
    count
}

/// Parses an unsigned decimal node id from a byte slice, rejecting
/// empty input, non-digits and `u32` overflow.
fn parse_u32(field: &[u8]) -> Option<u32> {
    if field.is_empty() || field.len() > 10 {
        return None;
    }
    let mut value: u64 = 0;
    for &b in field {
        if !b.is_ascii_digit() {
            return None;
        }
        value = value * 10 + u64::from(b - b'0');
    }
    u32::try_from(value).ok()
}

/// Parses a SNAP sign field: any nonzero decimal integer, optionally
/// negative (real dumps use `-1`/`1`; magnitudes are ignored like
/// [`Sign::from_value`] does).
fn parse_sign(field: &[u8]) -> Option<Sign> {
    let (negative, digits) = match field.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, field),
    };
    if digits.is_empty() || digits.len() > 18 || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    if digits.iter().all(|&b| b == b'0') {
        return None; // sign 0 is meaningless in a signed network
    }
    Some(if negative {
        Sign::Negative
    } else {
        Sign::Positive
    })
}

/// Recognizes the [`write_snap`] header comment
/// `# Directed signed network: N nodes, M edges` and extracts `N`, so
/// trailing isolated nodes survive a write/load round trip.
fn header_node_count(comment: &[u8]) -> Option<usize> {
    let rest = comment.strip_prefix(b"# Directed signed network: ")?;
    let end = rest.iter().position(|&b| b == b' ')?;
    let (number, tail) = rest.split_at(end);
    if tail.starts_with(b" nodes") {
        parse_u32(number).map(|n| n as usize)
    } else {
        None
    }
}

/// Streams a SNAP-format signed edge list into a [`SignedDigraph`],
/// returning the graph plus a full [`LoadReport`] of what was dropped.
///
/// Every edge gets weight `1.0` (the SNAP format carries no weights);
/// re-weight afterwards with [`paper_weights`](crate::paper_weights) or
/// [`SignedDigraph::map_weights`]. Duplicate `(src, dst)` pairs resolve
/// last-wins; self-loops and comments are dropped and counted.
///
/// # Errors
///
/// Returns [`GraphError::Io`] for reader failures and — only under
/// [`MalformedPolicy::Error`] — [`GraphError::Parse`] with the 1-based
/// line number for unparseable lines.
///
/// # Examples
///
/// ```
/// use isomit_datasets::{load_snap, LoadOptions};
///
/// let input = "\
/// ## a comment
/// 0 1 -1
/// 1 1 1
/// 1\t2\t1
/// 0 1 1
/// ";
/// let (graph, report) = load_snap(input.as_bytes(), &LoadOptions::default()).unwrap();
/// assert_eq!(graph.node_count(), 3);
/// assert_eq!(graph.edge_count(), 2); // self-loop dropped, duplicate resolved
/// assert_eq!(report.self_loops, 1);
/// assert_eq!(report.duplicate_edges, 1);
/// assert_eq!(report.comment_lines, 1);
/// ```
pub fn load_snap<R: Read>(
    reader: R,
    options: &LoadOptions,
) -> Result<(SignedDigraph, LoadReport), GraphError> {
    let mut reader = BufReader::with_capacity(1 << 16, reader);
    let mut report = LoadReport::default();
    let mut edges: Vec<Edge> = Vec::with_capacity(options.edge_capacity);
    let mut min_nodes = options.min_nodes;
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        report.total_lines += 1;
        let line_no = report.total_lines as usize;
        // Trim the terminator plus surrounding whitespace; `\r\n` line
        // endings reduce to the same slice as `\n` ones.
        let mut line = buf.as_slice();
        while let Some((&first, rest)) = line.split_first() {
            if first.is_ascii_whitespace() {
                line = rest;
            } else {
                break;
            }
        }
        while let Some((&last, rest)) = line.split_last() {
            if last.is_ascii_whitespace() {
                line = rest;
            } else {
                break;
            }
        }
        if line.is_empty() {
            report.blank_lines += 1;
            continue;
        }
        if line.first() == Some(&b'#') {
            report.comment_lines += 1;
            if let Some(n) = header_node_count(line) {
                min_nodes = min_nodes.max(n);
            }
            continue;
        }
        let mut fields: [&[u8]; 4] = [&[]; 4];
        let count = split_fields(line, &mut fields);
        let [f0, f1, f2, _] = fields;
        let parsed = if count == 3 {
            match (parse_u32(f0), parse_u32(f1), parse_sign(f2)) {
                (Some(src), Some(dst), Some(sign)) => Some((src, dst, sign)),
                _ => None,
            }
        } else {
            None
        };
        let Some((src, dst, sign)) = parsed else {
            match options.malformed {
                MalformedPolicy::Skip => {
                    report.malformed_lines += 1;
                    continue;
                }
                MalformedPolicy::Error => {
                    return Err(GraphError::Parse {
                        line: line_no,
                        message: format!(
                            "expected `src dst sign` with integer ids and a nonzero sign, got {:?}",
                            String::from_utf8_lossy(line)
                        ),
                    });
                }
            }
        };
        if src == dst {
            report.self_loops += 1;
            continue;
        }
        report.parsed_edges += 1;
        edges.push(Edge::new(NodeId(src), NodeId(dst), sign, 1.0));
    }
    // Self-loops and weights were screened above, so construction cannot
    // fail; keep the `?` anyway to avoid a panic path.
    let graph = SignedDigraph::from_edge_vec(min_nodes, edges)?;
    report.duplicate_edges = report.parsed_edges - graph.edge_count() as u64;
    report.nodes = graph.node_count();
    report.edges = graph.edge_count();
    Ok((graph, report))
}

/// Opens `path` and streams it through [`load_snap`].
///
/// # Errors
///
/// See [`load_snap`]; additionally fails with [`GraphError::Io`] if the
/// file cannot be opened.
pub fn load_snap_file<P: AsRef<Path>>(
    path: P,
    options: &LoadOptions,
) -> Result<(SignedDigraph, LoadReport), GraphError> {
    let file = std::fs::File::open(path)?;
    load_snap(file, options)
}

/// Writes the graph as a SNAP-format signed edge list, headed by the
/// node-count comment [`load_snap`] reads back. Weights are not
/// representable in the format and are dropped. A mutable reference is
/// a fine argument here: `write_snap(&g, &mut buf)`.
///
/// # Errors
///
/// Returns [`GraphError::Io`] if the writer fails.
///
/// # Examples
///
/// ```
/// use isomit_datasets::{load_snap, write_snap, LoadOptions};
/// use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
///
/// let g = SignedDigraph::from_edges(
///     3,
///     [Edge::new(NodeId(0), NodeId(1), Sign::Negative, 0.7)],
/// )?;
/// let mut buf = Vec::new();
/// write_snap(&g, &mut buf)?;
/// // Structure, signs and the isolated node 2 round-trip; the weight is
/// // lost by the format.
/// let (back, _) = load_snap(buf.as_slice(), &LoadOptions::default())?;
/// assert_eq!(back.node_count(), 3);
/// let e = back.edge(NodeId(0), NodeId(1)).expect("edge kept");
/// assert_eq!((e.sign, e.weight), (Sign::Negative, 1.0));
/// # Ok::<(), isomit_graph::GraphError>(())
/// ```
pub fn write_snap<W: Write>(graph: &SignedDigraph, mut writer: W) -> Result<(), GraphError> {
    writeln!(
        writer,
        "# Directed signed network: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    )?;
    writeln!(writer, "# FromNodeId\tToNodeId\tSign")?;
    for e in graph.edges() {
        writeln!(writer, "{}\t{}\t{}", e.src.0, e.dst.0, e.sign.value())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict() -> LoadOptions {
        LoadOptions::default()
    }

    #[test]
    fn parses_basic_edge_list() {
        let (g, r) = load_snap("0 1 -1\n1\t2\t1\n3   0   1\n".as_bytes(), &strict()).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge(NodeId(0), NodeId(1)).unwrap().sign, Sign::Negative);
        assert_eq!(g.edge(NodeId(1), NodeId(2)).unwrap().sign, Sign::Positive);
        assert_eq!(r.parsed_edges, 3);
        assert_eq!(r.dropped_lines(), 0);
    }

    #[test]
    fn drops_comments_blanks_and_self_loops_and_keeps_last_duplicate() {
        let input = "# banner\n\n0 1 -1\n1 2 1\n2 2 1\n0 1 1\n";
        let (g, r) = load_snap(input.as_bytes(), &strict()).unwrap();
        assert_eq!((g.node_count(), g.edge_count()), (3, 2));
        let e = g.edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!((e.sign, e.weight), (Sign::Positive, 1.0));
        assert_eq!(g.edge(NodeId(1), NodeId(2)).unwrap().sign, Sign::Positive);
        assert!(g.edge(NodeId(2), NodeId(2)).is_none());
        assert_eq!((r.comment_lines, r.blank_lines), (1, 1));
        assert_eq!((r.self_loops, r.duplicate_edges), (1, 1));
    }

    #[test]
    fn counts_every_dropped_line_kind() {
        let input = "# c1\n# c2\n\n   \n0 0 1\n0 1 1\n0 1 -1\nbroken line\n2 3 1\n";
        let (g, r) = load_snap(input.as_bytes(), &LoadOptions::lenient()).unwrap();
        assert_eq!(r.total_lines, 9);
        assert_eq!(r.comment_lines, 2);
        assert_eq!(r.blank_lines, 2);
        assert_eq!(r.self_loops, 1);
        assert_eq!(r.malformed_lines, 1);
        assert_eq!(r.duplicate_edges, 1);
        assert_eq!(r.parsed_edges, 3);
        assert_eq!((r.nodes, r.edges), (4, 2));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(r.dropped_lines(), 7);
    }

    #[test]
    fn strict_mode_errors_with_line_number() {
        let err = load_snap("# ok\n0 1 1\nbroken\n".as_bytes(), &strict()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 3, .. }));
    }

    #[test]
    fn conflicting_sign_duplicates_are_last_wins() {
        let (g, r) = load_snap("0 1 1\n0 1 -1\n".as_bytes(), &strict()).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge(NodeId(0), NodeId(1)).unwrap().sign, Sign::Negative);
        assert_eq!(r.duplicate_edges, 1);
    }

    #[test]
    fn crlf_and_whitespace_are_tolerated() {
        let input = "0 1 1\r\n  2\t3\t-1  \r\n\r\n# tail\r\n";
        let (g, r) = load_snap(input.as_bytes(), &strict()).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge(NodeId(2), NodeId(3)).unwrap().sign, Sign::Negative);
        assert_eq!(r.blank_lines, 1);
        assert_eq!(r.comment_lines, 1);
    }

    #[test]
    fn missing_trailing_newline_still_parses_last_line() {
        let (g, r) = load_snap("0 1 1\n2 3 -1".as_bytes(), &strict()).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(r.total_lines, 2);
    }

    #[test]
    fn header_comment_preserves_isolated_nodes() {
        let input = "# Directed signed network: 9 nodes, 1 edges\n0 1 1\n";
        let (g, _) = load_snap(input.as_bytes(), &strict()).unwrap();
        assert_eq!(g.node_count(), 9);
        // Other comments never set the node count.
        let (g, _) = load_snap("# nodes: 9\n0 1 1\n".as_bytes(), &strict()).unwrap();
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn min_nodes_option_is_a_floor() {
        let opts = LoadOptions {
            min_nodes: 12,
            ..LoadOptions::default()
        };
        let (g, _) = load_snap("0 1 1\n".as_bytes(), &opts).unwrap();
        assert_eq!(g.node_count(), 12);
    }

    #[test]
    fn rejects_overflowing_and_nondigit_ids() {
        for bad in [
            "4294967296 1 1\n", // u32::MAX + 1
            "x 1 1\n",
            "0 y 1\n",
            "0 1 maybe\n",
            "0 1 0\n",
            "0 1 -0\n",
            "0 1\n",
            "0 1 1 extra\n",
            "0 1 --1\n",
            "-1 1 1\n",
        ] {
            assert!(
                matches!(
                    load_snap(bad.as_bytes(), &strict()),
                    Err(GraphError::Parse { .. })
                ),
                "input {bad:?} should be a parse error"
            );
            let (g, r) = load_snap(bad.as_bytes(), &LoadOptions::lenient()).unwrap();
            assert_eq!(g.edge_count(), 0, "input {bad:?} should be skipped");
            assert_eq!(r.malformed_lines, 1);
        }
        // u32::MAX itself parses (the graph build, not the parser, is
        // what bounds practical id ranges).
        assert_eq!(parse_u32(b"4294967295"), Some(u32::MAX));
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let (g, r) = load_snap("".as_bytes(), &strict()).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(r, LoadReport::default());
    }

    #[test]
    fn file_loading_round_trips() {
        let dir = std::env::temp_dir().join("isomit-datasets-ingest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.txt");
        std::fs::write(&path, "# hi\n0 1 1\n1 2 -1\n").unwrap();
        let (g, r) = load_snap_file(&path, &strict()).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(r.comment_lines, 1);
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load_snap_file("/nonexistent/isomit.txt", &strict()),
            Err(GraphError::Io(_))
        ));
    }
}

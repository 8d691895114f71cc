//! The client → server wire format (paper Fig. 8 / §5: clients ship
//! performance data to dedicated analysis servers each reporting period).
//!
//! A [`FragmentBatch`] is what one rank sends for one reporting period:
//! its rank id, the window bounds, a **label dictionary** (each distinct
//! state label appears once, referenced by dense `u32` id — reusing the
//! [`SymbolTable`] interner), and the fragments grouped per STG location.
//! Edges are `(from, to)` id pairs, so a state label containing `" -> "`
//! can never collide with a transition label.
//!
//! Two serialisations exist:
//!
//! * [`FragmentBatch::encode`] — the production path: a compact
//!   **columnar (SoA) binary layout** with length-prefixed framing
//!   (see the module constants and `DESIGN.md` §“Wire format”). Fragments
//!   are written as contiguous columns (ranks, kinds, starts, ends,
//!   counter sets, counter values, argument vectors), which is both
//!   several times smaller and several times faster to decode than JSON.
//! * [`FragmentBatch::to_json_bytes`] — serde JSON of the same structure,
//!   kept only as the size baseline; admission never decodes JSON.
//!
//! ```text
//! frame   := payload_len:u32 payload
//! payload := magic "VPRW" | version:u8 (=2)
//!          | crc32:u32             -- IEEE CRC-32 of every payload byte
//!          | seq:u64                  after the crc field (0 = unsequenced)
//!          | rank:u32 | window_start_ns:u64 | window_end_ns:u64
//!          | nlabels:u32 | nlabels × (len:u32, utf-8 bytes)
//!          | nvgroups:u32 | nvgroups × (label:u32, count:u32)
//!          | negroups:u32 | negroups × (from:u32, to:u32, count:u32)
//!          | nfrags:u32            -- Σ counts, vertex groups then edge
//!          | ranks:   nfrags × u32    groups, fragments in group order
//!          | kinds:   nfrags × u8
//!          | starts:  nfrags × u64
//!          | ends:    nfrags × u64
//!          | csets:   nfrags × u32    -- CounterSet bitmask over ALL
//!          | ncvals:u32 | cvals: ncvals × f64   -- active counters only
//!          | nargcs:  nfrags × u16
//!          | nargs:u32  | args:  nargs × f64
//! ```
//!
//! All integers and floats are little-endian.
//!
//! **Integrity (format v2).** Each frame carries an IEEE CRC-32 over the
//! payload (computed over everything after the checksum field) so a
//! bit-flipped frame is rejected as [`WireError::BadChecksum`] instead of
//! being misparsed, plus a per-rank monotonic sequence number so the
//! server can deduplicate retransmitted batches and detect gaps left by
//! dropped frames. Sequence `0` means "unsequenced": the frame opts out
//! of duplicate/gap tracking (and every decoded v1 frame reports it).
//! Version-1 frames (no checksum, no sequence number) still decode; the
//! legacy layout can be produced with [`FragmentBatch::encode_v1`] for
//! compatibility tests and overhead baselines.

use crate::detect::window::Window;
use crate::fragment::{Fragment, FragmentKind};
use crate::intern::{Sym, SymbolTable};
use crate::stg::Stg;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::{Mutex, OnceLock};
use vapro_pmu::{CounterDelta, CounterId};
use vapro_sim::VirtualTime;

/// Frame magic: identifies a Vapro wire payload.
pub const WIRE_MAGIC: [u8; 4] = *b"VPRW";
/// Current wire-format version byte (CRC-32 + sequence numbers).
pub const WIRE_VERSION: u8 = 2;
/// The legacy pre-integrity version byte; still decodable.
pub const WIRE_VERSION_V1: u8 = 1;
/// The fleet version byte: the v2 layout plus a `(tenant_id, job_id)`
/// routing header between the sequence number and the body, so one
/// ingest plane can serve many jobs across tenants. v1/v2 frames still
/// decode, mapping to [`DEFAULT_TENANT`]/[`DEFAULT_JOB`].
pub const WIRE_VERSION_V3: u8 = 3;
/// The sequence number meaning "unsequenced": the sender opted out of
/// duplicate and gap tracking. Decoded v1 frames always carry it.
pub const SEQ_UNSEQUENCED: u64 = 0;
/// The tenant every pre-v3 frame decodes to: single-tenant deployments
/// never mention tenancy and keep working unchanged.
pub const DEFAULT_TENANT: u32 = 0;
/// The job every pre-v3 frame decodes to.
pub const DEFAULT_JOB: u32 = 0;

/// IEEE CRC-32 (the Ethernet/zlib polynomial), slice-by-8 so checksum
/// cost stays a small fraction of the columnar decode itself. Tables are
/// built at compile time; no external crate needed.
pub mod crc32 {
    const POLY: u32 = 0xEDB8_8320;

    const fn build_tables() -> [[u32; 256]; 8] {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
                bit += 1;
            }
            tables[0][i] = crc;
            i += 1;
        }
        let mut t = 1;
        while t < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[t - 1][i];
                tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                i += 1;
            }
            t += 1;
        }
        tables
    }

    static TABLES: [[u32; 256]; 8] = build_tables();

    /// One slicing-table lookup with both indices masked into range.
    #[inline]
    fn tab(t: usize, b: u64) -> u32 {
        // vapro-lint: allow(R5, mask-bounded lookup: t & 7 < 8 and b & 0xFF < 256)
        TABLES[t & 7][(b & 0xFF) as usize]
    }

    /// Checksum of `bytes`.
    pub fn checksum(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // vapro-lint: allow(R5, chunks_exact(8) yields exactly 8 bytes)
            let v = u64::from_le_bytes(chunk.try_into().expect("8 bytes")) ^ crc as u64;
            crc = tab(7, v)
                ^ tab(6, v >> 8)
                ^ tab(5, v >> 16)
                ^ tab(4, v >> 24)
                ^ tab(3, v >> 32)
                ^ tab(2, v >> 40)
                ^ tab(1, v >> 48)
                ^ tab(0, v >> 56);
        }
        for &b in chunks.remainder() {
            crc = tab(0, (crc ^ b as u32) as u64) ^ (crc >> 8);
        }
        !crc
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn matches_the_reference_vector() {
            // The canonical IEEE CRC-32 check value.
            assert_eq!(super::checksum(b"123456789"), 0xCBF4_3926);
            assert_eq!(super::checksum(b""), 0);
        }

        #[test]
        fn slice_by_8_equals_bytewise() {
            // Cross-check the widened kernel against the plain table walk
            // on lengths straddling the 8-byte boundary.
            let data: Vec<u8> = (0u32..97).map(|i| (i * 131 % 251) as u8).collect();
            for len in 0..data.len() {
                let bytes = &data[..len];
                let mut crc = !0u32;
                for &b in bytes {
                    crc = super::TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
                }
                assert_eq!(super::checksum(bytes), !crc, "len {len}");
            }
        }
    }
}

/// The invocation fragments of one state (STG vertex), by dictionary id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VertexGroup {
    /// Dictionary id of the state label.
    pub label: Sym,
    /// Invocation fragments observed in this state.
    pub fragments: Vec<Fragment>,
}

/// The computation fragments of one transition (STG edge), by endpoint
/// dictionary ids — never a formatted `"from -> to"` string, so labels
/// containing `" -> "` cannot collide.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeGroup {
    /// Dictionary id of the source state label.
    pub from: Sym,
    /// Dictionary id of the destination state label.
    pub to: Sym,
    /// Computation fragments observed on this transition.
    pub fragments: Vec<Fragment>,
}

/// One rank's shipped data for one reporting window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FragmentBatch {
    /// Originating rank.
    pub rank: usize,
    /// Per-rank monotonic sequence number; [`SEQ_UNSEQUENCED`] (0) opts
    /// out of duplicate/gap tracking. Sequenced senders start at 1.
    pub seq: u64,
    /// Owning tenant, for fleet routing and admission. Only carried on
    /// the wire by v3 frames; v1/v2 decode to [`DEFAULT_TENANT`].
    pub tenant_id: u32,
    /// Job within the tenant; v1/v2 frames decode to [`DEFAULT_JOB`].
    pub job_id: u32,
    /// Window start, ns.
    pub window_start_ns: u64,
    /// Window end, ns.
    pub window_end_ns: u64,
    /// Label dictionary: each distinct state label once; groups refer to
    /// labels by index.
    pub labels: Vec<String>,
    /// Invocation fragments per state.
    pub vertex_groups: Vec<VertexGroup>,
    /// Computation fragments per transition.
    pub edge_groups: Vec<EdgeGroup>,
}

/// Decoding or admission failure of a binary wire frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer cannot hold the frame its length prefix declares (or is
    /// too short for the prefix itself).
    ShortFrame {
        /// Bytes the length prefix declared (prefix included), if it could
        /// even be read.
        declared: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload ended before a field did.
    Truncated,
    /// The payload does not start with [`WIRE_MAGIC`].
    BadMagic,
    /// The version byte is not one this decoder understands.
    BadVersion {
        /// The version byte found on the wire.
        got: u8,
        /// The newest version this decoder supports.
        supported: u8,
    },
    /// The payload checksum does not match its CRC-32 field: the frame
    /// was corrupted in flight. Rank and sequence are best-effort reads
    /// of the (untrusted) header, for log attribution.
    BadChecksum {
        /// Claimed originating rank.
        rank: u32,
        /// Claimed sequence number.
        seq: u64,
    },
    /// A frame claims a rank outside the deployment the ingestor was
    /// configured for. Hostile or misrouted input, rejected at admission.
    UnknownRank {
        /// The rank the frame claimed.
        rank: u32,
        /// The configured deployment size.
        nranks: u32,
    },
    /// A frame claims a tenant the fleet has no registration for.
    /// Hostile or misrouted input, rejected at fleet admission.
    UnknownTenant {
        /// The tenant the frame claimed.
        tenant: u32,
    },
    /// A frame would push its tenant past the byte budget the fleet
    /// admitted it with. Structured fair-backpressure rejection: the
    /// sender must back off, other tenants are unaffected.
    TenantOverBudget {
        /// The over-budget tenant.
        tenant: u32,
        /// The tenant's configured budget, bytes.
        budget_bytes: u64,
        /// Bytes the tenant would have had in flight had the frame
        /// been admitted.
        requested_bytes: u64,
    },
    /// A sequenced frame re-used a sequence number the server has already
    /// admitted for that rank — a retransmission, dropped on arrival.
    DuplicateSequence {
        /// Originating rank.
        rank: u32,
        /// The repeated sequence number.
        seq: u64,
    },
    /// A dictionary label is not valid UTF-8.
    BadUtf8,
    /// A fragment-kind byte outside the known range.
    BadKind(u8),
    /// A group references a label id outside the dictionary.
    BadLabelId(Sym),
    /// Column lengths disagree with the group counts.
    CountMismatch,
    /// Bytes left over after a single-frame decode.
    TrailingBytes,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::ShortFrame { declared, available } => write!(
                f,
                "frame declares {declared} bytes but only {available} are available"
            ),
            WireError::Truncated => write!(f, "truncated wire frame"),
            WireError::BadMagic => write!(f, "bad wire magic"),
            WireError::BadVersion { got, supported } => {
                write!(f, "unsupported wire version {got} (decoder supports <= {supported})")
            }
            WireError::BadChecksum { rank, seq } => write!(
                f,
                "checksum mismatch on frame claiming rank {rank} seq {seq}"
            ),
            WireError::UnknownRank { rank, nranks } => {
                write!(f, "frame from unknown rank {rank} (deployment has {nranks} ranks)")
            }
            WireError::UnknownTenant { tenant } => {
                write!(f, "frame from unregistered tenant {tenant}")
            }
            WireError::TenantOverBudget { tenant, budget_bytes, requested_bytes } => write!(
                f,
                "tenant {tenant} over budget: {requested_bytes} B in flight \
                 would exceed the {budget_bytes} B admission budget"
            ),
            WireError::DuplicateSequence { rank, seq } => {
                write!(f, "duplicate frame from rank {rank} seq {seq}")
            }
            WireError::BadUtf8 => write!(f, "dictionary label is not UTF-8"),
            WireError::BadKind(k) => write!(f, "unknown fragment kind byte {k}"),
            WireError::BadLabelId(id) => write!(f, "label id {id} outside dictionary"),
            WireError::CountMismatch => write!(f, "column length does not match group counts"),
            WireError::TrailingBytes => write!(f, "trailing bytes after frame"),
        }
    }
}

impl std::error::Error for WireError {}

fn kind_to_byte(kind: FragmentKind) -> u8 {
    match kind {
        FragmentKind::Computation => 0,
        FragmentKind::Communication => 1,
        FragmentKind::Io => 2,
        FragmentKind::Other => 3,
    }
}

fn kind_from_byte(b: u8) -> Result<FragmentKind, WireError> {
    Ok(match b {
        0 => FragmentKind::Computation,
        1 => FragmentKind::Communication,
        2 => FragmentKind::Io,
        3 => FragmentKind::Other,
        other => return Err(WireError::BadKind(other)),
    })
}

fn counter_set_bits(c: &CounterDelta) -> u32 {
    let mut bits = 0u32;
    for (id, _) in c.entries() {
        bits |= 1 << id.index();
    }
    bits
}

/// Exact wire cost of one fragment record in the columnar layout:
/// rank (4) + kind (1) + start (8) + end (8) + counter set (4) +
/// 8 bytes per active counter + arg count (2) + 8 bytes per argument.
/// This is what the collector's storage-overhead accounting charges per
/// recorded fragment (the framing, header and dictionary amortise to
/// noise over a reporting period).
pub fn fragment_wire_bytes(f: &Fragment) -> u64 {
    let counters = f.counters.entries().count() as u64;
    4 + 1 + 8 + 8 + 4 + 8 * counters + 2 + 8 * f.args.len() as u64
}

/// Every fragment record occupies at least rank (4) + kind (1) +
/// start (8) + end (8) + counter set (4) + arg count (2) bytes in the
/// column section; the decoder's anti-OOM guard sizes claimed counts
/// against this floor.
const MIN_BYTES_PER_FRAG: u64 = 4 + 1 + 8 + 8 + 4 + 2;

// --------------------------------------------------------------------
// Little-endian cursor helpers. Encoding writes into one growing Vec;
// decoding advances a borrowed slice. Both are branch-light and never
// allocate beyond the output collections themselves.

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.buf = tail;
        Ok(head)
    }

    /// Fixed-size read. The `try_into` cannot fail after a successful
    /// `take`, but the decode path is total by construction: every
    /// conversion maps to an error instead of trusting a length.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?.try_into().map_err(|_| WireError::Truncated)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?.first().copied().ok_or(WireError::Truncated)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.array()?))
    }
}

impl FragmentBatch {
    /// Extract a rank's batch for `window` from its STG: every fragment
    /// *overlapping* the window. Used for one-shot analyses; periodic
    /// shipping should use [`FragmentBatch::from_stg_starting_in`] so
    /// consecutive batches partition the fragments.
    pub fn from_stg(stg: &Stg, rank: usize, window: Window) -> FragmentBatch {
        Self::from_stg_filtered(stg, rank, window, |f| window.overlaps(f.start, f.end))
    }

    /// Extract the batch a client ships for one reporting period: the
    /// fragments whose *start* lies in `[window.start, window.end)`.
    /// Unlike [`FragmentBatch::from_stg`], consecutive periods partition
    /// the fragment population — nothing is shipped twice.
    pub fn from_stg_starting_in(stg: &Stg, rank: usize, window: Window) -> FragmentBatch {
        Self::from_stg_filtered(stg, rank, window, |f| {
            f.start >= window.start && f.start < window.end
        })
    }

    fn from_stg_filtered(
        stg: &Stg,
        rank: usize,
        window: Window,
        keep: impl Fn(&Fragment) -> bool,
    ) -> FragmentBatch {
        let mut dict: SymbolTable<String> = SymbolTable::new();
        // Lazily intern vertex labels: only states that actually appear
        // (as a non-empty vertex or an edge endpoint) enter the dictionary.
        let mut syms: Vec<Option<Sym>> = vec![None; stg.num_states()];
        let mut sym_of = |state: usize, dict: &mut SymbolTable<String>| -> Sym {
            if let Some(s) = syms[state] {
                return s;
            }
            let s = dict.intern(stg.vertices()[state].key.label());
            syms[state] = Some(s);
            s
        };
        let mut vertex_groups = Vec::new();
        for (id, v) in stg.vertices().iter().enumerate() {
            let fragments: Vec<Fragment> = v
                .fragments
                .iter()
                .filter(|f| keep(f))
                .cloned() // vapro-lint: allow(R1, client-side period extraction builds the one owned batch each report ships)
                .collect();
            if !fragments.is_empty() {
                let label = sym_of(id, &mut dict);
                vertex_groups.push(VertexGroup { label, fragments });
            }
        }
        let mut edge_groups = Vec::new();
        for e in stg.edges() {
            let fragments: Vec<Fragment> = e
                .fragments
                .iter()
                .filter(|f| keep(f))
                .cloned() // vapro-lint: allow(R1, client-side period extraction builds the one owned batch each report ships)
                .collect();
            if !fragments.is_empty() {
                let from = sym_of(e.from, &mut dict);
                let to = sym_of(e.to, &mut dict);
                edge_groups.push(EdgeGroup { from, to, fragments });
            }
        }
        FragmentBatch {
            rank,
            seq: SEQ_UNSEQUENCED,
            tenant_id: DEFAULT_TENANT,
            job_id: DEFAULT_JOB,
            window_start_ns: window.start.ns(),
            window_end_ns: window.end.ns(),
            labels: dict.into_keys(),
            vertex_groups,
            edge_groups,
        }
    }

    /// Stamp the batch with a sequence number (builder style). Sequenced
    /// senders number their frames 1, 2, 3, … per rank; `0` keeps the
    /// batch unsequenced.
    pub fn with_seq(mut self, seq: u64) -> FragmentBatch {
        self.seq = seq;
        self
    }

    /// Stamp the batch with its fleet routing identity (builder style).
    /// Only v3 frames carry the stamp on the wire; encoding a stamped
    /// batch as v1/v2 silently drops it (the decoder restores the
    /// defaults), so fleet senders must encode v3.
    pub fn with_job(mut self, tenant_id: u32, job_id: u32) -> FragmentBatch {
        self.tenant_id = tenant_id;
        self.job_id = job_id;
        self
    }

    /// Resolve a dictionary id to its label.
    pub fn label(&self, id: Sym) -> &str {
        &self.labels[id as usize]
    }

    /// Total fragments in the batch.
    pub fn len(&self) -> usize {
        self.vertex_groups.iter().map(|g| g.fragments.len()).sum::<usize>()
            + self.edge_groups.iter().map(|g| g.fragments.len()).sum::<usize>()
    }

    /// Empty batch?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn fragments(&self) -> impl Iterator<Item = &Fragment> {
        self.vertex_groups
            .iter()
            .flat_map(|g| g.fragments.iter())
            .chain(self.edge_groups.iter().flat_map(|g| g.fragments.iter()))
    }

    /// Append one length-prefixed binary frame to `out`. This is the
    /// allocation-lean streaming entry point: the caller reuses one
    /// buffer across batches.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let len_pos = out.len();
        out.extend_from_slice(&0u32.to_le_bytes()); // patched below
        let payload_start = out.len();

        out.extend_from_slice(&WIRE_MAGIC);
        out.push(WIRE_VERSION);
        let crc_pos = out.len();
        out.extend_from_slice(&0u32.to_le_bytes()); // checksum, patched below
        let checked_start = out.len();
        out.extend_from_slice(&self.seq.to_le_bytes());
        self.encode_body(out);

        let crc = crc32::checksum(&out[checked_start..]);
        out[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
        let payload_len = u32::try_from(out.len() - payload_start).expect("frame fits u32");
        out[len_pos..len_pos + 4].copy_from_slice(&payload_len.to_le_bytes());
    }

    /// Append one length-prefixed **v3** frame: the v2 layout plus the
    /// `(tenant_id, job_id)` routing header between the sequence number
    /// and the body, both covered by the checksum. The entry point fleet
    /// senders use; single-tenant senders can keep shipping v2.
    pub fn encode_into_v3(&self, out: &mut Vec<u8>) {
        let len_pos = out.len();
        out.extend_from_slice(&0u32.to_le_bytes()); // patched below
        let payload_start = out.len();

        out.extend_from_slice(&WIRE_MAGIC);
        out.push(WIRE_VERSION_V3);
        let crc_pos = out.len();
        out.extend_from_slice(&0u32.to_le_bytes()); // checksum, patched below
        let checked_start = out.len();
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.tenant_id.to_le_bytes());
        out.extend_from_slice(&self.job_id.to_le_bytes());
        self.encode_body(out);

        let crc = crc32::checksum(&out[checked_start..]);
        out[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
        let payload_len = u32::try_from(out.len() - payload_start).expect("frame fits u32");
        out[len_pos..len_pos + 4].copy_from_slice(&payload_len.to_le_bytes());
    }

    /// Serialise to one length-prefixed **v3** binary frame (see
    /// [`FragmentBatch::encode_into_v3`]).
    pub fn encode_v3(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.len() * 40);
        self.encode_into_v3(&mut out);
        out
    }

    /// Append one frame in the **legacy v1 layout** (no checksum, no
    /// sequence number). Kept for cross-version compatibility tests and
    /// for measuring the integrity overhead against a v1 baseline.
    pub fn encode_into_v1(&self, out: &mut Vec<u8>) {
        let len_pos = out.len();
        out.extend_from_slice(&0u32.to_le_bytes()); // patched below
        let payload_start = out.len();

        out.extend_from_slice(&WIRE_MAGIC);
        out.push(WIRE_VERSION_V1);
        self.encode_body(out);

        let payload_len = u32::try_from(out.len() - payload_start).expect("frame fits u32");
        out[len_pos..len_pos + 4].copy_from_slice(&payload_len.to_le_bytes());
    }

    /// Serialise to one length-prefixed **v1** binary frame (see
    /// [`FragmentBatch::encode_into_v1`]).
    pub fn encode_v1(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.len() * 40);
        self.encode_into_v1(&mut out);
        out
    }

    /// The version-independent payload body: rank, window bounds, label
    /// dictionary, group heads and fragment columns.
    fn encode_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&u32::try_from(self.rank).expect("rank fits u32").to_le_bytes());
        out.extend_from_slice(&self.window_start_ns.to_le_bytes());
        out.extend_from_slice(&self.window_end_ns.to_le_bytes());

        out.extend_from_slice(
            &u32::try_from(self.labels.len()).expect("dictionary fits u32").to_le_bytes(),
        );
        for label in &self.labels {
            let bytes = label.as_bytes();
            out.extend_from_slice(
                &u32::try_from(bytes.len()).expect("label fits u32").to_le_bytes(),
            );
            out.extend_from_slice(bytes);
        }

        out.extend_from_slice(
            &u32::try_from(self.vertex_groups.len()).expect("groups fit u32").to_le_bytes(),
        );
        for g in &self.vertex_groups {
            out.extend_from_slice(&g.label.to_le_bytes());
            out.extend_from_slice(
                &u32::try_from(g.fragments.len()).expect("pool fits u32").to_le_bytes(),
            );
        }
        out.extend_from_slice(
            &u32::try_from(self.edge_groups.len()).expect("groups fit u32").to_le_bytes(),
        );
        for g in &self.edge_groups {
            out.extend_from_slice(&g.from.to_le_bytes());
            out.extend_from_slice(&g.to.to_le_bytes());
            out.extend_from_slice(
                &u32::try_from(g.fragments.len()).expect("pool fits u32").to_le_bytes(),
            );
        }

        let nfrags = self.len();
        out.extend_from_slice(&u32::try_from(nfrags).expect("batch fits u32").to_le_bytes());
        // Columns. Each pass walks the fragments in group order, so the
        // column offsets line up on decode without any per-fragment index.
        for f in self.fragments() {
            out.extend_from_slice(
                &u32::try_from(f.rank).expect("rank fits u32").to_le_bytes(),
            );
        }
        for f in self.fragments() {
            out.push(kind_to_byte(f.kind));
        }
        for f in self.fragments() {
            out.extend_from_slice(&f.start.ns().to_le_bytes());
        }
        for f in self.fragments() {
            out.extend_from_slice(&f.end.ns().to_le_bytes());
        }
        for f in self.fragments() {
            out.extend_from_slice(&counter_set_bits(&f.counters).to_le_bytes());
        }
        let ncvals: usize = self.fragments().map(|f| f.counters.entries().count()).sum();
        out.extend_from_slice(&u32::try_from(ncvals).expect("values fit u32").to_le_bytes());
        for f in self.fragments() {
            for (_, v) in f.counters.entries() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        for f in self.fragments() {
            out.extend_from_slice(
                &u16::try_from(f.args.len()).expect("at most 65535 args").to_le_bytes(),
            );
        }
        let nargs: usize = self.fragments().map(|f| f.args.len()).sum();
        out.extend_from_slice(&u32::try_from(nargs).expect("args fit u32").to_le_bytes());
        for f in self.fragments() {
            for a in &f.args {
                out.extend_from_slice(&a.to_le_bytes());
            }
        }
    }

    /// Serialise to one length-prefixed binary frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.len() * 40);
        self.encode_into(&mut out);
        out
    }

    /// Decode exactly one binary frame; trailing bytes are an error.
    /// For a buffer holding several frames use [`decode_stream`].
    ///
    /// This is the ingest-facing entry point (solo and fleet admission
    /// both come through here), so it is where wire rejections register
    /// as VOPR fault points: corrupt (checksum) and structural
    /// (everything else) rejects are counted separately.
    pub fn decode(bytes: &[u8]) -> Result<FragmentBatch, WireError> {
        use crate::vopr::fault_points::{hit, FaultPoint};
        let (batch, consumed) = match Self::decode_frame(bytes) {
            Ok(ok) => ok,
            Err(e) => {
                hit(match e {
                    WireError::BadChecksum { .. } => FaultPoint::WireCorruptReject,
                    _ => FaultPoint::WireStructuralReject,
                });
                return Err(e);
            }
        };
        if consumed != bytes.len() {
            hit(FaultPoint::WireStructuralReject);
            return Err(WireError::TrailingBytes);
        }
        Ok(batch)
    }

    /// Decode the first frame of `bytes`, returning the batch and the
    /// number of bytes consumed (frame prefix included).
    pub fn decode_frame(bytes: &[u8]) -> Result<(FragmentBatch, usize), WireError> {
        let prefix: [u8; 4] = bytes
            .get(..4)
            .and_then(|p| p.try_into().ok())
            .ok_or(WireError::ShortFrame { declared: 4, available: bytes.len() })?;
        let payload_len = u32::from_le_bytes(prefix) as usize;
        let declared = 4usize.saturating_add(payload_len);
        let payload = bytes
            .get(4..declared)
            .ok_or(WireError::ShortFrame { declared, available: bytes.len() })?;
        let batch = Self::decode_payload(payload)?;
        Ok((batch, declared))
    }

    fn decode_payload(payload: &[u8]) -> Result<FragmentBatch, WireError> {
        let mut r = Reader { buf: payload };
        if r.take(4)? != WIRE_MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.u8()?;
        let (seq, tenant_id, job_id) = match version {
            WIRE_VERSION_V1 => (SEQ_UNSEQUENCED, DEFAULT_TENANT, DEFAULT_JOB),
            WIRE_VERSION | WIRE_VERSION_V3 => {
                let claimed_crc = r.u32()?;
                // Everything after the checksum field is covered: verify
                // before trusting a single body byte. The `SkipCrcCheck`
                // canary (vopr-canary builds only) suppresses exactly
                // this rejection; the VOPR harness must notice the
                // corrupt frames it then admits.
                if crc32::checksum(r.buf) != claimed_crc
                    && !crate::vopr::canary::armed(crate::vopr::canary::Canary::SkipCrcCheck)
                {
                    // Best-effort attribution from the (untrusted) header
                    // for log lines; zeros if the frame is too short.
                    let mut peek = Reader { buf: r.buf };
                    let seq = peek.u64().unwrap_or(0);
                    if version == WIRE_VERSION_V3 {
                        // Skip the routing header to reach the rank.
                        let _ = peek.u32();
                        let _ = peek.u32();
                    }
                    let rank = peek.u32().unwrap_or(0);
                    return Err(WireError::BadChecksum { rank, seq });
                }
                let seq = r.u64()?;
                if version == WIRE_VERSION_V3 {
                    (seq, r.u32()?, r.u32()?)
                } else {
                    (seq, DEFAULT_TENANT, DEFAULT_JOB)
                }
            }
            got => return Err(WireError::BadVersion { got, supported: WIRE_VERSION_V3 }),
        };
        let rank = r.u32()? as usize;
        let window_start_ns = r.u64()?;
        let window_end_ns = r.u64()?;

        let nlabels = r.u32()? as usize;
        let mut labels = Vec::with_capacity(nlabels.min(payload.len()));
        for _ in 0..nlabels {
            let len = r.u32()? as usize;
            let bytes = r.take(len)?;
            labels.push(
                std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)?.to_string(),
            );
        }
        let check_label = |id: Sym| {
            if (id as usize) < labels.len() {
                Ok(id)
            } else {
                Err(WireError::BadLabelId(id))
            }
        };

        let nvgroups = r.u32()? as usize;
        let mut vheads = Vec::with_capacity(nvgroups.min(payload.len()));
        for _ in 0..nvgroups {
            let label = check_label(r.u32()?)?;
            let count = r.u32()? as usize;
            vheads.push((label, count));
        }
        let negroups = r.u32()? as usize;
        let mut eheads = Vec::with_capacity(negroups.min(payload.len()));
        for _ in 0..negroups {
            let from = check_label(r.u32()?)?;
            let to = check_label(r.u32()?)?;
            let count = r.u32()? as usize;
            eheads.push((from, to, count));
        }

        let nfrags = r.u32()? as usize;
        let vcount: usize = vheads.iter().map(|&(_, c)| c).sum();
        let ecount: usize = eheads.iter().map(|&(_, _, c)| c).sum();
        if nfrags != vcount.saturating_add(ecount) {
            return Err(WireError::CountMismatch);
        }
        // Reject a claimed count the buffer cannot possibly hold *before*
        // sizing any column Vec, so a tiny malformed frame claiming ~4
        // billion fragments errors out instead of forcing a multi-GB
        // allocation.
        if (nfrags as u64).saturating_mul(MIN_BYTES_PER_FRAG) > r.buf.len() as u64 {
            return Err(WireError::Truncated);
        }

        // Columns, in layout order.
        let mut ranks = Vec::with_capacity(nfrags);
        for _ in 0..nfrags {
            ranks.push(r.u32()? as usize);
        }
        let kind_bytes = r.take(nfrags)?;
        let mut kinds = Vec::with_capacity(nfrags);
        for &b in kind_bytes {
            kinds.push(kind_from_byte(b)?);
        }
        let mut starts = Vec::with_capacity(nfrags);
        for _ in 0..nfrags {
            starts.push(r.u64()?);
        }
        let mut ends = Vec::with_capacity(nfrags);
        for _ in 0..nfrags {
            ends.push(r.u64()?);
        }
        let mut csets = Vec::with_capacity(nfrags);
        for _ in 0..nfrags {
            csets.push(r.u32()?);
        }
        let ncvals = r.u32()? as usize;
        if ncvals != csets.iter().map(|b| b.count_ones() as usize).sum::<usize>() {
            return Err(WireError::CountMismatch);
        }
        let mut counters = Vec::with_capacity(nfrags);
        for &bits in &csets {
            let mut delta = CounterDelta::default();
            for id in CounterId::ALL {
                if bits & (1 << id.index()) != 0 {
                    delta.put(id, r.f64()?);
                }
            }
            counters.push(delta);
        }
        let mut argcs = Vec::with_capacity(nfrags);
        for _ in 0..nfrags {
            argcs.push(r.u16()? as usize);
        }
        let nargs = r.u32()? as usize;
        if nargs != argcs.iter().sum::<usize>() {
            return Err(WireError::CountMismatch);
        }
        let mut args = Vec::with_capacity(nfrags);
        for &n in &argcs {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.f64()?);
            }
            args.push(v);
        }
        if !r.buf.is_empty() {
            return Err(WireError::TrailingBytes);
        }

        // Reassemble fragments from the columns, in group order. The zip
        // ends with the shortest column; group counts were validated
        // against nfrags above, so running dry maps to CountMismatch
        // rather than any panic.
        let mut cols = ranks
            .into_iter()
            .zip(kinds)
            .zip(starts)
            .zip(ends)
            .zip(counters)
            .zip(args)
            .map(|(((((rank, kind), start), end), counters), args)| Fragment {
                rank,
                kind,
                start: VirtualTime::from_ns(start),
                end: VirtualTime::from_ns(end),
                counters,
                args,
            });
        let mut vertex_groups = Vec::with_capacity(vheads.len());
        for (label, count) in vheads {
            let mut fragments = Vec::with_capacity(count);
            for _ in 0..count {
                fragments.push(cols.next().ok_or(WireError::CountMismatch)?);
            }
            vertex_groups.push(VertexGroup { label, fragments });
        }
        let mut edge_groups = Vec::with_capacity(eheads.len());
        for (from, to, count) in eheads {
            let mut fragments = Vec::with_capacity(count);
            for _ in 0..count {
                fragments.push(cols.next().ok_or(WireError::CountMismatch)?);
            }
            edge_groups.push(EdgeGroup { from, to, fragments });
        }

        Ok(FragmentBatch {
            rank,
            seq,
            tenant_id,
            job_id,
            window_start_ns,
            window_end_ns,
            labels,
            vertex_groups,
            edge_groups,
        })
    }

    /// Serialise to JSON (the size baseline only; the §6.2 storage-rate
    /// numbers account the binary encoding).
    pub fn to_json_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("serialisable batch")
    }
}

/// Iterate the length-prefixed frames of a byte stream. Yields batches
/// until the buffer is exhausted; a malformed frame yields its error and
/// ends the iteration.
pub fn decode_stream(bytes: &[u8]) -> impl Iterator<Item = Result<FragmentBatch, WireError>> + '_ {
    let mut rest = bytes;
    let mut dead = false;
    std::iter::from_fn(move || {
        if dead || rest.is_empty() {
            return None;
        }
        match FragmentBatch::decode_frame(rest) {
            Ok((batch, consumed)) => {
                rest = rest.get(consumed..).unwrap_or_default();
                Some(Ok(batch))
            }
            Err(e) => {
                dead = true;
                Some(Err(e))
            }
        }
    })
}

/// Intern a label into a process-lifetime string. Crossing the
/// serialisation boundary back into `CallSite` keys needs `&'static str`
/// sites; interning bounds the leak by the number of *distinct* labels
/// ever seen, however many batches, windows or arenas are processed.
pub fn leak_label(label: &str) -> &'static str {
    static LABELS: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    // A panicking holder can only have been between `get` and `insert`;
    // both leave the set coherent, so the poisoned state is usable.
    let mut set = LABELS
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match set.get(label) {
        Some(&leaked) => leaked,
        None => {
            let leaked: &'static str = Box::leak(label.to_string().into_boxed_str());
            set.insert(leaked);
            leaked
        }
    }
}

/// Server-side pools reassembled from many ranks' batches: label →
/// fragments, merged across ranks — the population the clustering and
/// detection stages consume. Edge pools are keyed by the `(from, to)`
/// label *pair*, so state labels containing `" -> "` stay unambiguous.
#[derive(Debug, Default, PartialEq)]
pub struct ReassembledPools {
    /// Invocation pools by state label.
    pub vertices: BTreeMap<String, Vec<Fragment>>,
    /// Computation pools by `(from, to)` transition label pair.
    pub edges: BTreeMap<(String, String), Vec<Fragment>>,
}

impl ReassembledPools {
    /// Merge a set of batches (any ranks, same window). Consumes the
    /// batches so every fragment *moves* into its pool — reassembly
    /// never copies a population.
    pub fn from_batches<I>(batches: I) -> ReassembledPools
    where
        I: IntoIterator<Item = FragmentBatch>,
    {
        let mut out = ReassembledPools::default();
        for b in batches {
            let FragmentBatch { labels, vertex_groups, edge_groups, .. } = b;
            let name = |id: Sym| -> String {
                labels.get(id as usize).map(String::as_str).unwrap_or_default().to_string()
            };
            for g in vertex_groups {
                out.vertices.entry(name(g.label)).or_default().extend(g.fragments);
            }
            for g in edge_groups {
                out.edges
                    .entry((name(g.from), name(g.to)))
                    .or_default()
                    .extend(g.fragments);
            }
        }
        out
    }

    /// Total fragments across pools.
    pub fn len(&self) -> usize {
        self.vertices.values().map(Vec::len).sum::<usize>()
            + self.edges.values().map(Vec::len).sum::<usize>()
    }

    /// Empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::FragmentKind;
    use crate::stg::StateKey;
    use vapro_pmu::{CounterDelta, CounterId};
    use vapro_sim::{CallSite, VirtualTime};

    fn sample_stg(rank: usize) -> Stg {
        let mut stg = Stg::new();
        let s0 = stg.state(StateKey::Start);
        let s1 = stg.state(StateKey::Site(CallSite("w:MPI_Barrier")));
        stg.transition(s0, s1);
        let e = stg.transition(s1, s1);
        for i in 0..10u64 {
            let mut c = CounterDelta::default();
            c.put(CounterId::TotIns, 1000.0);
            stg.attach_edge_fragment(
                e,
                Fragment {
                    rank,
                    kind: FragmentKind::Computation,
                    start: VirtualTime::from_ns(i * 200),
                    end: VirtualTime::from_ns(i * 200 + 150),
                    counters: c,
                    args: vec![],
                },
            );
            stg.attach_vertex_fragment(
                s1,
                Fragment {
                    rank,
                    kind: FragmentKind::Communication,
                    start: VirtualTime::from_ns(i * 200 + 150),
                    end: VirtualTime::from_ns(i * 200 + 200),
                    counters: CounterDelta::default(),
                    args: vec![8.0],
                },
            );
        }
        stg
    }

    fn full_window() -> Window {
        Window { start: VirtualTime::ZERO, end: VirtualTime::from_secs(1) }
    }

    #[test]
    fn batch_extraction_respects_the_window() {
        let stg = sample_stg(3);
        let all = FragmentBatch::from_stg(&stg, 3, full_window());
        assert_eq!(all.len(), 20);
        let half = FragmentBatch::from_stg(
            &stg,
            3,
            Window { start: VirtualTime::ZERO, end: VirtualTime::from_ns(1000) },
        );
        assert!(half.len() < all.len());
        assert!(!half.is_empty());
    }

    #[test]
    fn start_partitioned_batches_cover_each_fragment_once() {
        let stg = sample_stg(0);
        // 900 ns falls inside the 800..950 fragment, so the boundary is
        // genuinely straddled.
        let w1 = Window { start: VirtualTime::ZERO, end: VirtualTime::from_ns(900) };
        let w2 = Window { start: VirtualTime::from_ns(900), end: VirtualTime::from_secs(1) };
        let b1 = FragmentBatch::from_stg_starting_in(&stg, 0, w1);
        let b2 = FragmentBatch::from_stg_starting_in(&stg, 0, w2);
        assert_eq!(b1.len() + b2.len(), stg.total_fragments());
        // The overlap extraction, by contrast, double-ships the fragment
        // straddling the boundary.
        let o1 = FragmentBatch::from_stg(&stg, 0, w1);
        let o2 = FragmentBatch::from_stg(&stg, 0, w2);
        assert!(o1.len() + o2.len() > stg.total_fragments());
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let batch = FragmentBatch::from_stg(&sample_stg(1), 1, full_window());
        let bytes = batch.encode();
        let back = FragmentBatch::decode(&bytes).unwrap();
        assert_eq!(batch, back);
    }

    #[test]
    fn json_fallback_roundtrip_is_lossless() {
        let batch = FragmentBatch::from_stg(&sample_stg(1), 1, full_window());
        let back: FragmentBatch = serde_json::from_slice(&batch.to_json_bytes()).unwrap();
        assert_eq!(batch, back);
    }

    #[test]
    fn binary_is_several_times_smaller_than_json() {
        let batch = FragmentBatch::from_stg(&sample_stg(1), 1, full_window());
        let binary = batch.encode().len();
        let json = batch.to_json_bytes().len();
        assert!(
            json as f64 / binary as f64 >= 4.0,
            "binary {binary} B vs json {json} B"
        );
        // And in the ballpark of the §6.2 per-record accounting.
        let accounted: u64 = batch
            .vertex_groups
            .iter()
            .flat_map(|g| g.fragments.iter())
            .chain(batch.edge_groups.iter().flat_map(|g| g.fragments.iter()))
            .map(fragment_wire_bytes)
            .sum();
        let overhead = binary as u64 - accounted;
        assert!(overhead < 200, "fixed overhead {overhead} B");
    }

    #[test]
    fn framed_stream_decodes_batch_by_batch() {
        let mut buf = Vec::new();
        let batches: Vec<FragmentBatch> = (0..3)
            .map(|r| FragmentBatch::from_stg(&sample_stg(r), r, full_window()))
            .collect();
        for b in &batches {
            b.encode_into(&mut buf);
        }
        let decoded: Vec<FragmentBatch> =
            decode_stream(&buf).collect::<Result<_, _>>().unwrap();
        assert_eq!(decoded, batches);
    }

    #[test]
    fn malformed_frames_error_instead_of_panicking() {
        assert_eq!(
            FragmentBatch::decode(&[]).unwrap_err(),
            WireError::ShortFrame { declared: 4, available: 0 }
        );
        let mut bytes = FragmentBatch::from_stg(&sample_stg(0), 0, full_window()).encode();
        // Flip the magic.
        bytes[4] = b'X';
        assert_eq!(FragmentBatch::decode(&bytes).unwrap_err(), WireError::BadMagic);
        let mut bytes = FragmentBatch::from_stg(&sample_stg(0), 0, full_window()).encode();
        bytes[8] = 99; // version byte
        assert_eq!(
            FragmentBatch::decode(&bytes).unwrap_err(),
            WireError::BadVersion { got: 99, supported: WIRE_VERSION_V3 }
        );
        let bytes = FragmentBatch::from_stg(&sample_stg(0), 0, full_window()).encode();
        assert_eq!(
            FragmentBatch::decode(&bytes[..bytes.len() - 3]).unwrap_err(),
            WireError::ShortFrame { declared: bytes.len(), available: bytes.len() - 3 }
        );
        // Arbitrary truncations never panic.
        for cut in 0..bytes.len() {
            let _ = FragmentBatch::decode(&bytes[..cut]);
        }
    }

    #[test]
    fn corrupted_payload_bytes_fail_the_checksum() {
        let batch = FragmentBatch::from_stg(&sample_stg(2), 2, full_window()).with_seq(7);
        let clean = batch.encode();
        assert_eq!(FragmentBatch::decode(&clean).unwrap(), batch);
        // Flip one bit in every checksum-covered byte (after prefix,
        // magic, version and the crc field itself): all must be caught,
        // and the error names the claimed rank and sequence when the
        // corruption leaves the header intact.
        for pos in 13..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x40;
            match FragmentBatch::decode(&bytes).unwrap_err() {
                WireError::BadChecksum { rank, seq } => {
                    if pos >= 13 + 12 {
                        // Header (seq + rank) untouched: attribution exact.
                        assert_eq!((rank, seq), (2, 7), "flip at {pos}");
                    }
                }
                other => panic!("flip at {pos}: unexpected {other:?}"),
            }
        }
        // A flipped CRC field itself is also a checksum failure.
        let mut bytes = clean.clone();
        bytes[9] ^= 0xFF;
        assert!(matches!(
            FragmentBatch::decode(&bytes).unwrap_err(),
            WireError::BadChecksum { .. }
        ));
    }

    #[test]
    fn sequence_numbers_roundtrip() {
        let batch = FragmentBatch::from_stg(&sample_stg(1), 1, full_window());
        assert_eq!(batch.seq, SEQ_UNSEQUENCED);
        let stamped = batch.with_seq(u64::MAX);
        let back = FragmentBatch::decode(&stamped.encode()).unwrap();
        assert_eq!(back.seq, u64::MAX);
        assert_eq!(back, stamped);
    }

    #[test]
    fn legacy_v1_frames_still_decode() {
        let batch = FragmentBatch::from_stg(&sample_stg(1), 1, full_window()).with_seq(42);
        let v1 = batch.encode_v1();
        assert_eq!(v1[8], WIRE_VERSION_V1);
        // v1 carries no sequence number, so the roundtrip reports 0 but
        // is otherwise lossless.
        let back = FragmentBatch::decode(&v1).unwrap();
        assert_eq!(back.seq, SEQ_UNSEQUENCED);
        assert_eq!(back, batch.clone().with_seq(SEQ_UNSEQUENCED));
        // And the v2 frame costs exactly the integrity fields extra:
        // crc32 (4) + seq (8).
        assert_eq!(batch.encode().len(), v1.len() + 12);
    }

    #[test]
    fn v3_routing_header_roundtrips() {
        let batch = FragmentBatch::from_stg(&sample_stg(1), 1, full_window())
            .with_seq(42)
            .with_job(7, u32::MAX);
        let v3 = batch.encode_v3();
        assert_eq!(v3[8], WIRE_VERSION_V3);
        let back = FragmentBatch::decode(&v3).unwrap();
        assert_eq!((back.tenant_id, back.job_id, back.seq), (7, u32::MAX, 42));
        assert_eq!(back, batch);
        // The routing header costs exactly tenant (4) + job (4) over v2.
        assert_eq!(v3.len(), batch.encode().len() + 8);
    }

    #[test]
    fn pre_v3_frames_decode_to_the_default_tenant() {
        // A stamped batch encoded as v1 or v2 loses the stamp on the
        // wire; the decoder restores the default identity, so legacy
        // single-tenant senders route to the default job unchanged.
        let batch = FragmentBatch::from_stg(&sample_stg(2), 2, full_window())
            .with_seq(3)
            .with_job(9, 12);
        let v2 = FragmentBatch::decode(&batch.encode()).unwrap();
        assert_eq!((v2.tenant_id, v2.job_id), (DEFAULT_TENANT, DEFAULT_JOB));
        assert_eq!(v2.seq, 3);
        let v1 = FragmentBatch::decode(&batch.encode_v1()).unwrap();
        assert_eq!((v1.tenant_id, v1.job_id), (DEFAULT_TENANT, DEFAULT_JOB));
    }

    #[test]
    fn corrupted_v3_bytes_fail_the_checksum_with_attribution() {
        let batch = FragmentBatch::from_stg(&sample_stg(2), 2, full_window())
            .with_seq(7)
            .with_job(5, 6);
        let clean = batch.encode_v3();
        assert_eq!(FragmentBatch::decode(&clean).unwrap(), batch);
        // Checksum coverage starts after prefix (4) + magic (4) +
        // version (1) + crc (4) = byte 13, as in v2.
        for pos in 13..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x40;
            match FragmentBatch::decode(&bytes).unwrap_err() {
                WireError::BadChecksum { rank, seq } => {
                    if pos >= 13 + 20 {
                        // seq + tenant + job + rank untouched: the error
                        // still attributes the true rank and sequence.
                        assert_eq!((rank, seq), (2, 7), "flip at {pos}");
                    }
                }
                other => panic!("flip at {pos}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn display_messages_name_rank_and_sequence() {
        let msg = WireError::BadChecksum { rank: 3, seq: 17 }.to_string();
        assert!(msg.contains("rank 3") && msg.contains("seq 17"), "{msg}");
        let msg = WireError::DuplicateSequence { rank: 5, seq: 9 }.to_string();
        assert!(msg.contains("rank 5") && msg.contains("seq 9"), "{msg}");
        let msg = WireError::BadVersion { got: 9, supported: WIRE_VERSION_V3 }.to_string();
        assert!(msg.contains('9') && msg.contains('3'), "{msg}");
        let msg = WireError::UnknownTenant { tenant: 11 }.to_string();
        assert!(msg.contains("tenant 11"), "{msg}");
        let msg = WireError::TenantOverBudget {
            tenant: 4,
            budget_bytes: 1024,
            requested_bytes: 2048,
        }
        .to_string();
        assert!(msg.contains("tenant 4") && msg.contains("1024") && msg.contains("2048"), "{msg}");
    }

    #[test]
    fn huge_claimed_fragment_count_is_rejected_before_allocating() {
        // A tiny frame whose group heads claim ~4 billion fragments must
        // return Truncated, not attempt multi-GB column allocations. The
        // guard must hold on both wire versions, so build the malicious
        // body once and frame it both ways (the v2 copy with a *valid*
        // checksum, so the anti-OOM check is what rejects it).
        let mut body = Vec::new();
        body.extend_from_slice(&0u32.to_le_bytes()); // rank
        body.extend_from_slice(&0u64.to_le_bytes()); // window start
        body.extend_from_slice(&0u64.to_le_bytes()); // window end
        body.extend_from_slice(&1u32.to_le_bytes()); // nlabels
        body.extend_from_slice(&1u32.to_le_bytes()); // label length
        body.push(b'a');
        body.extend_from_slice(&1u32.to_le_bytes()); // nvgroups
        body.extend_from_slice(&0u32.to_le_bytes()); // group label id
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // claimed pool size
        body.extend_from_slice(&0u32.to_le_bytes()); // negroups
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // nfrags

        let mut v1_payload = Vec::new();
        v1_payload.extend_from_slice(&WIRE_MAGIC);
        v1_payload.push(WIRE_VERSION_V1);
        v1_payload.extend_from_slice(&body);
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::try_from(v1_payload.len()).unwrap().to_le_bytes());
        frame.extend_from_slice(&v1_payload);
        assert_eq!(FragmentBatch::decode(&frame).unwrap_err(), WireError::Truncated);

        let mut checked = Vec::new();
        checked.extend_from_slice(&1u64.to_le_bytes()); // seq
        checked.extend_from_slice(&body);
        let mut v2_payload = Vec::new();
        v2_payload.extend_from_slice(&WIRE_MAGIC);
        v2_payload.push(WIRE_VERSION);
        v2_payload.extend_from_slice(&crc32::checksum(&checked).to_le_bytes());
        v2_payload.extend_from_slice(&checked);
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::try_from(v2_payload.len()).unwrap().to_le_bytes());
        frame.extend_from_slice(&v2_payload);
        assert_eq!(FragmentBatch::decode(&frame).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn edge_labels_with_arrow_substrings_do_not_collide() {
        // A state whose label itself contains " -> " used to collide with
        // a two-state transition label under the formatted-string scheme.
        let mut stg = Stg::new();
        let weird = stg.state(StateKey::Site(CallSite("a -> b")));
        let a = stg.state(StateKey::Site(CallSite("a")));
        let b = stg.state(StateKey::Site(CallSite("b")));
        let self_e = stg.transition(weird, weird);
        let ab = stg.transition(a, b);
        let mk = |ins: f64| {
            let mut c = CounterDelta::default();
            c.put(CounterId::TotIns, ins);
            Fragment {
                rank: 0,
                kind: FragmentKind::Computation,
                start: VirtualTime::ZERO,
                end: VirtualTime::from_ns(100),
                counters: c,
                args: vec![],
            }
        };
        stg.attach_edge_fragment(self_e, mk(1.0));
        stg.attach_edge_fragment(ab, mk(2.0));
        let batch = FragmentBatch::from_stg(&stg, 0, full_window());
        let pools = ReassembledPools::from_batches([batch.clone()]);
        // Two distinct edge pools: ("a -> b","a -> b") and ("a","b").
        assert_eq!(pools.edges.len(), 2);
        let weird_pool = &pools.edges[&("a -> b".to_string(), "a -> b".to_string())];
        assert_eq!(weird_pool.len(), 1);
        assert_eq!(weird_pool[0].counters.get(CounterId::TotIns), Some(1.0));
        let plain_pool = &pools.edges[&("a".to_string(), "b".to_string())];
        assert_eq!(plain_pool[0].counters.get(CounterId::TotIns), Some(2.0));
        // And the roundtrip preserves the distinction.
        let back = FragmentBatch::decode(&batch.encode()).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn reassembly_pools_across_ranks() {
        let batches: Vec<FragmentBatch> = (0..4)
            .map(|r| FragmentBatch::from_stg(&sample_stg(r), r, full_window()))
            .collect();
        let pools = ReassembledPools::from_batches(batches);
        assert_eq!(pools.len(), 4 * 20);
        // All ranks' computation fragments share one transition pool.
        let edge_pool = pools
            .edges
            .get(&("w:MPI_Barrier".to_string(), "w:MPI_Barrier".to_string()))
            .expect("pooled edge");
        assert_eq!(edge_pool.len(), 40);
        let ranks: std::collections::BTreeSet<usize> =
            edge_pool.iter().map(|f| f.rank).collect();
        assert_eq!(ranks.len(), 4);
    }

    #[test]
    fn pooled_batches_cluster_like_the_direct_path() {
        // The server can run Algorithm 1 on reassembled pools and get the
        // same answer as the in-process path.
        let batches: Vec<FragmentBatch> = (0..3)
            .map(|r| FragmentBatch::from_stg(&sample_stg(r), r, full_window()))
            .collect();
        let pools = ReassembledPools::from_batches(batches);
        let pool = &pools.edges[&("w:MPI_Barrier".to_string(), "w:MPI_Barrier".to_string())];
        let outcome = crate::clustering::cluster_fragments(
            pool,
            &crate::fragment::DEFAULT_PROXY,
            0.05,
            5,
        );
        assert_eq!(outcome.usable.len(), 1);
        assert_eq!(outcome.usable[0].len(), 30);
    }

    #[test]
    fn leaked_labels_are_interned_once() {
        let a = leak_label("wire-test-distinct-label");
        let b = leak_label("wire-test-distinct-label");
        assert!(std::ptr::eq(a, b));
    }
}

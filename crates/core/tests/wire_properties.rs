//! Property tests of the columnar wire format: the binary encoding is a
//! lossless bijection on batches (including labels with `" -> "` inside,
//! unicode labels, empty windows and zero-counter fragments), malformed
//! input never panics, and both transport encodings — columnar binary
//! and the JSON debugging fallback — reassemble identical pooled
//! populations on the server side.

use proptest::prelude::*;
use proptest::prop::collection::vec;
use vapro_core::fragment::{Fragment, FragmentKind};
use vapro_core::wire::{
    EdgeGroup, FragmentBatch, ReassembledPools, VertexGroup, DEFAULT_JOB, DEFAULT_TENANT,
};
use vapro_pmu::{CounterDelta, CounterId};
use vapro_sim::VirtualTime;

/// Labels exercising the separator ambiguity the dictionary removes,
/// plus unicode and the empty string.
fn label_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        vec(0u8..26, 1..12)
            .prop_map(|ix| ix.into_iter().map(|i| (b'a' + i) as char).collect::<String>()),
        Just("solve -> apply".to_string()),
        Just("a -> b -> c".to_string()),
        Just("поток:MPI_Allreduce".to_string()),
        Just("循环:письмо✓".to_string()),
        Just(String::new()),
        Just(" -> ".to_string()),
    ]
}

fn kind_strategy() -> impl Strategy<Value = FragmentKind> {
    prop_oneof![
        Just(FragmentKind::Computation),
        Just(FragmentKind::Communication),
        Just(FragmentKind::Io),
        Just(FragmentKind::Other),
    ]
}

/// Finite values only: NaN breaks `==` without telling us anything about
/// the codec.
fn finite() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), -1e12f64..1e12]
}

fn fragment_strategy() -> impl Strategy<Value = Fragment> {
    (
        0usize..64,
        kind_strategy(),
        0u64..1u64 << 48,
        0u64..1u64 << 20,
        vec((0usize..CounterId::ALL.len(), finite()), 0..6),
        vec(finite(), 0..5),
    )
        .prop_map(|(rank, kind, start, dur, counters, args)| {
            let mut delta = CounterDelta::default();
            for (idx, val) in counters {
                delta.put(CounterId::ALL[idx], val);
            }
            Fragment {
                rank,
                kind,
                start: VirtualTime::from_ns(start),
                end: VirtualTime::from_ns(start + dur),
                counters: delta,
                args,
            }
        })
}

/// An arbitrary batch: every group references a valid dictionary id;
/// groups (and the whole batch) may be empty — the "empty window" report.
fn batch_strategy() -> impl Strategy<Value = FragmentBatch> {
    vec(label_strategy(), 1..6).prop_flat_map(|labels| {
        let nlabels = labels.len() as u32;
        (
            Just(labels),
            0usize..1024,
            0u64..1u64 << 32,
            0u64..1u64 << 48,
            vec((0..nlabels, vec(fragment_strategy(), 0..8)), 0..4),
            vec((0..nlabels, 0..nlabels, vec(fragment_strategy(), 0..8)), 0..4),
        )
            .prop_map(|(labels, rank, seq, wstart, vgroups, egroups)| FragmentBatch {
                rank,
                seq,
                tenant_id: (seq >> 16) as u32,
                job_id: (seq >> 24) as u32,
                window_start_ns: wstart,
                window_end_ns: wstart + 1_000_000,
                labels,
                vertex_groups: vgroups
                    .into_iter()
                    .map(|(label, fragments)| VertexGroup { label, fragments })
                    .collect(),
                edge_groups: egroups
                    .into_iter()
                    .map(|(from, to, fragments)| EdgeGroup { from, to, fragments })
                    .collect(),
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// decode(encode_v3(b)) == b, for arbitrary batches — v3 carries
    /// every field including the routing stamp. The v2 layout is equally
    /// lossless except for the stamp it cannot carry, which the decoder
    /// restores to the default identity.
    #[test]
    fn binary_roundtrip_is_identity(batch in batch_strategy()) {
        let back = FragmentBatch::decode(&batch.encode_v3()).expect("own v3 parses");
        prop_assert_eq!(&batch, &back);
        let v2 = FragmentBatch::decode(&batch.encode()).expect("own v2 parses");
        prop_assert_eq!(v2, batch.clone().with_job(DEFAULT_TENANT, DEFAULT_JOB));
    }

    /// JSON serialisation (the storage-size baseline) is equally lossless.
    #[test]
    fn json_roundtrip_is_identity(batch in batch_strategy()) {
        let back: FragmentBatch =
            serde_json::from_slice(&batch.to_json_bytes()).expect("own JSON parses");
        prop_assert_eq!(&batch, &back);
    }

    /// Shipping over binary or over JSON reassembles identical pooled
    /// populations — the two transports are interchangeable end to end.
    #[test]
    fn both_transports_pool_identically(batches in vec(batch_strategy(), 1..4)) {
        let via_binary: Vec<FragmentBatch> = batches
            .iter()
            .map(|b| FragmentBatch::decode(&b.encode()).expect("binary"))
            .collect();
        let via_json: Vec<FragmentBatch> = batches
            .iter()
            .map(|b| serde_json::from_slice(&b.to_json_bytes()).expect("json"))
            .collect();
        let pb = ReassembledPools::from_batches(via_binary);
        let pj = ReassembledPools::from_batches(via_json);
        prop_assert_eq!(&pb, &pj);
        prop_assert_eq!(pb.len(), batches.iter().map(|b| b.len()).sum::<usize>());
    }

    /// Truncating a valid frame anywhere yields an error, never a panic
    /// and never a silently-wrong batch.
    #[test]
    fn truncation_errors_cleanly(batch in batch_strategy(), cut in 0.0f64..1.0) {
        let bytes = batch.encode();
        let cut = (bytes.len() as f64 * cut) as usize;
        if cut < bytes.len() {
            prop_assert!(FragmentBatch::decode(&bytes[..cut]).is_err());
        }
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn garbage_never_panics(bytes in vec((0u16..256).prop_map(|b| b as u8), 0..256)) {
        let _ = FragmentBatch::decode(&bytes);
    }

    /// Mutating any single byte of a valid v2 frame never panics, and —
    /// except for the version byte, where a flip can masquerade as the
    /// uncheckedsummed legacy layout — always returns an error: the frame
    /// prefix is structurally validated and every payload byte after the
    /// version is either the CRC field or covered by it.
    #[test]
    fn byte_mutations_of_v2_frames_error_cleanly(
        batch in batch_strategy(),
        pos in 0.0f64..1.0,
        mask in 1u16..256,
    ) {
        let mut bytes = batch.encode();
        let pos = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[pos] ^= mask as u8;
        let decoded = FragmentBatch::decode(&bytes);
        if pos != 8 {
            prop_assert!(decoded.is_err(), "flip at {} decoded anyway", pos);
        }
    }

    /// The same single-byte mutation sweep on v3 frames: the routing
    /// header sits inside checksum coverage, so a flipped tenant or job
    /// id is caught like any other payload corruption.
    #[test]
    fn byte_mutations_of_v3_frames_error_cleanly(
        batch in batch_strategy(),
        pos in 0.0f64..1.0,
        mask in 1u16..256,
    ) {
        let mut bytes = batch.encode_v3();
        let pos = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[pos] ^= mask as u8;
        let decoded = FragmentBatch::decode(&bytes);
        if pos != 8 {
            prop_assert!(decoded.is_err(), "flip at {} decoded anyway", pos);
        }
    }

    /// The same mutation sweep on legacy v1 frames (no checksum): flips
    /// may decode to a *different* batch, but must never panic and never
    /// reproduce the original encoding by accident.
    #[test]
    fn byte_mutations_of_v1_frames_never_panic(
        batch in batch_strategy(),
        pos in 0.0f64..1.0,
        mask in 1u16..256,
    ) {
        let mut bytes = batch.encode_v1();
        let pos = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[pos] ^= mask as u8;
        let _ = FragmentBatch::decode(&bytes);
    }

    /// Legacy v1 frames roundtrip losslessly apart from the sequence
    /// number and routing stamp, which the v1 layout cannot carry.
    #[test]
    fn v1_roundtrip_drops_only_the_sequence(batch in batch_strategy()) {
        let back = FragmentBatch::decode(&batch.encode_v1()).expect("v1 parses");
        prop_assert_eq!(
            back,
            batch
                .with_seq(vapro_core::wire::SEQ_UNSEQUENCED)
                .with_job(DEFAULT_TENANT, DEFAULT_JOB)
        );
    }
}

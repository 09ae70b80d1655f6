//! Property-based tests of the trace store: codec round-trips over
//! random bit-pattern streams, the encoder's bytes against the four-way
//! oracle, end-to-end write→read equality, the writer's refusals, and
//! the no-panic contract on corrupted or truncated inputs.

#[path = "../src/column/oracle.rs"]
mod oracle;

use eqimpact_core::closed_loop::{AiSystem, Feedback, MeanFilter};
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::recorder::RecordPolicy;
use eqimpact_core::recorder::StepSink;
use eqimpact_core::scenario::Scale;
use eqimpact_stats::codec::crc32;
use eqimpact_stats::json::{Json, ToJson};
use eqimpact_trace::column::{decode_f64_column, plan_f64_column};
use eqimpact_trace::store::MAGIC;
use eqimpact_trace::{
    decode_column, encode_column, evaluate_off_policy, ReplayRunner, StepFrame, TraceError,
    TraceHeader, TraceReader, TraceStepSink, TraceWriter, FORMAT_VERSION,
};
use proptest::prelude::*;

/// One step's channels: visible (flat, width 2), signals, actions,
/// filtered.
type StepData = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

fn header() -> TraceHeader {
    TraceHeader {
        version: FORMAT_VERSION,
        scenario: "synthetic".to_string(),
        variant: "test".to_string(),
        trial: 3,
        scale: Scale::Quick,
        seed: u64::MAX - 17,
        shards: 4,
        delay: 1,
        policy: RecordPolicy::Full,
        checkpoints: false,
    }
}

/// Writes a synthetic trace of the given step channels (each step: one
/// row of width 2 per user) and returns the bytes.
fn write_trace(steps: &[StepData]) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), &header()).expect("header");
    if let Some((visible, _, _, _)) = steps.first() {
        let codes: Vec<u32> = (0..visible.len() / 2).map(|i| (i % 3) as u32).collect();
        writer
            .write_groups(&["a", "b", "c"], &codes)
            .expect("groups");
    }
    for (visible, signals, actions, filtered) in steps {
        let mut matrix = FeatureMatrix::new(2);
        for row in visible.chunks(2) {
            matrix.push_row(row);
        }
        writer
            .write_step(&matrix, signals, actions, filtered)
            .expect("step");
    }
    writer.finish().expect("footer")
}

/// `users` rows of width 2 plus the three channels, from raw u64 bit
/// patterns (so NaNs, infinities and signed zeros all occur).
fn step_strategy(users: usize) -> impl Strategy<Value = StepData> {
    let channel = move |len: usize| {
        prop::collection::vec(0u64..=u64::MAX, len..=len)
            .prop_map(|bits| bits.into_iter().map(f64::from_bits).collect::<Vec<f64>>())
    };
    (
        channel(users * 2),
        channel(users),
        channel(users),
        channel(users),
    )
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A column stitched from segments `(shape, length, seed)` of the shapes
/// trace columns take: constant runs, affine ramps of the words, 0/1
/// indicator steps, full-mantissa noise, special words (NaN payloads,
/// ±0, ±∞, subnormals, `u64::MAX`), one-magnitude floats, and byte
/// palindromes (their own byte swap, so a column of them ties the raw
/// and the swapped domain).
fn mixture(segments: &[(u8, usize, u64)]) -> Vec<u64> {
    const SPECIAL: [u64; 8] = [
        0,
        1 << 63,               // -0.0
        0x7FF0_0000_0000_0000, // +inf
        0xFFF0_0000_0000_0000, // -inf
        0x7FF8_DEAD_BEEF_0001, // NaN payload
        1,                     // smallest subnormal
        0x000F_FFFF_FFFF_FFFF, // largest subnormal
        u64::MAX,
    ];
    let mut words = Vec::new();
    for &(shape, len, seed) in segments {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        words.extend((0..len as u64).map(|i| match shape {
            0 => seed,
            1 => seed.wrapping_add(i.wrapping_mul(seed >> 40 | 1)),
            2 => (((i / (seed % 7 + 1)) % 2) as f64).to_bits(),
            3 => next(),
            4 => SPECIAL[((seed >> 3).wrapping_add(i) % 8) as usize],
            5 => (seed.wrapping_add(i / 5) & 0xFF) * 0x0101_0101_0101_0101,
            _ => (20.0 + 480.0 * ((next() >> 11) as f64 / (1u64 << 53) as f64)).to_bits(),
        }));
    }
    words
}

proptest! {
    #[test]
    fn u64_columns_roundtrip_any_stream(values in prop::collection::vec(0u64..=u64::MAX, 0..200)) {
        let mut bytes = Vec::new();
        encode_column(&values, &mut bytes);
        let mut pos = 0;
        let mut back = Vec::new();
        prop_assert!(decode_column(&bytes, &mut pos, values.len(), &mut back).is_some());
        prop_assert_eq!(pos, bytes.len());
        prop_assert_eq!(back, values);
    }

    #[test]
    fn runny_columns_roundtrip_and_compress(
        runs in prop::collection::vec((1usize..20, 0u64..=u64::MAX), 1..20)
    ) {
        let values: Vec<u64> = runs
            .iter()
            .flat_map(|&(len, v)| std::iter::repeat_n(v, len))
            .collect();
        let mut bytes = Vec::new();
        encode_column(&values, &mut bytes);
        let mut pos = 0;
        let mut back = Vec::new();
        prop_assert!(decode_column(&bytes, &mut pos, values.len(), &mut back).is_some());
        prop_assert_eq!(back, values);
        // RLE caps the cost at ~one (run, delta) pair per run.
        prop_assert!(bytes.len() <= 1 + runs.len() * 21 + 16);
    }

    #[test]
    fn encoders_write_the_oracles_bytes_on_mixed_shapes(
        segments in prop::collection::vec((0u8..7, 1usize..300, 0u64..=u64::MAX), 0..8)
    ) {
        let words = mixture(&segments);
        let mut bytes = Vec::new();
        encode_column(&words, &mut bytes);
        let mut expected = Vec::new();
        oracle::encode_column(&words, &mut expected);
        prop_assert_eq!(&bytes, &expected);

        let values: Vec<f64> = words.iter().map(|&w| f64::from_bits(w)).collect();
        let plan = plan_f64_column(&values);
        let mut block = Vec::new();
        plan.write(&mut block);
        let mut expected = Vec::new();
        oracle::encode_f64_column(&values, &mut expected);
        prop_assert_eq!(&block, &expected);
        prop_assert_eq!((plan.tag(), plan.block_len()), (block[0], block.len()));

        let (mut pos, mut back) = (0, Vec::new());
        prop_assert!(decode_f64_column(&block, &mut pos, values.len(), |v| back.push(v)).is_some());
        prop_assert_eq!(pos, block.len());
        prop_assert_eq!(bits(&back), words);
    }

    #[test]
    fn trace_roundtrips_random_bit_patterns(step_data in prop::collection::vec(step_strategy(5), 0..6)) {
        let bytes = write_trace(&step_data);
        let mut input: &[u8] = &bytes;
        let mut reader = TraceReader::new(&mut input).expect("opens");
        prop_assert_eq!(reader.header(), &header());
        let mut frame = StepFrame::default();
        for (k, (visible, signals, actions, filtered)) in step_data.iter().enumerate() {
            prop_assert!(reader.next_step(&mut frame).expect("step"));
            prop_assert_eq!(frame.step, k);
            prop_assert_eq!(bits(&frame.visible.to_row_major()), bits(visible));
            prop_assert_eq!(bits(&frame.signals), bits(signals));
            prop_assert_eq!(bits(&frame.actions), bits(actions));
            prop_assert_eq!(bits(&frame.filtered), bits(filtered));
        }
        prop_assert!(!reader.next_step(&mut frame).expect("footer"));
    }

    #[test]
    fn corrupted_byte_never_panics_and_flips_are_checksum_errors(
        step_data in prop::collection::vec(step_strategy(3), 1..4),
        position in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let bytes = write_trace(&step_data);
        let mut corrupted = bytes.clone();
        let at = position % corrupted.len();
        corrupted[at] ^= flip;
        // Reading a corrupted trace must never panic: every outcome is
        // Ok (the flip landed outside a read path we exercise) or a
        // named TraceError.
        let mut input: &[u8] = &corrupted;
        match TraceReader::new(&mut input) {
            Err(_) => {}
            Ok(mut reader) => {
                let mut frame = StepFrame::default();
                while let Ok(true) = reader.next_step(&mut frame) {}
            }
        }
        // A flip inside a frame *payload* is specifically a checksum
        // mismatch (the magic is 8 bytes, each frame starts with a
        // 9-byte header). Corrupt the first header payload byte:
        let mut payload_hit = bytes.clone();
        payload_hit[8 + 9] ^= flip;
        let mut input: &[u8] = &payload_hit;
        match TraceReader::new(&mut input) {
            Err(TraceError::ChecksumMismatch { frame: 0 }) => {}
            other => prop_assert!(false, "expected ChecksumMismatch, got {:?}", other.err()),
        }
    }

    #[test]
    fn truncated_traces_are_named_errors_not_panics(
        step_data in prop::collection::vec(step_strategy(3), 1..4),
        keep_fraction in 0.0f64..1.0,
    ) {
        let bytes = write_trace(&step_data);
        let keep = ((bytes.len() as f64) * keep_fraction) as usize;
        prop_assume!(keep < bytes.len());
        let cut = &bytes[..keep];
        let mut input: &[u8] = cut;
        let outcome = TraceReader::new(&mut input).and_then(|mut reader| {
            let mut frame = StepFrame::default();
            while reader.next_step(&mut frame)? {}
            Ok(())
        });
        // Dropping the footer (or more) must surface as an error —
        // a truncated trace can never read back as complete.
        match outcome {
            Err(
                TraceError::Truncated { .. }
                | TraceError::ChecksumMismatch { .. }
                | TraceError::BadMagic
                | TraceError::Corrupt { .. },
            ) => {}
            other => prop_assert!(false, "truncation must be a named error, got {other:?}"),
        }
    }
}

/// Echoes the first visible column as its signal: [`write_uniform_step`]
/// mirrors every recorded signal there, so replay verifies each step.
struct EchoAi;

impl AiSystem for EchoAi {
    fn signals_into(&mut self, _k: usize, visible: &FeatureMatrix, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(visible.col(0));
    }
    fn retrain(&mut self, _k: usize, _feedback: &Feedback) {}
}

/// Writes one step of `users` users: the signals count up from 0 and
/// are mirrored in the one visible column, and every action and filter
/// output is 1. It replays under [`EchoAi`] and a fresh [`MeanFilter`]
/// (the running mean of 1s is 1).
fn write_uniform_step(writer: &mut TraceWriter<Vec<u8>>, users: usize) -> Result<(), TraceError> {
    let signals: Vec<f64> = (0..users).map(|i| i as f64).collect();
    let mut visible = FeatureMatrix::new(1);
    for &s in &signals {
        visible.push_row(&[s]);
    }
    writer.write_step(&visible, &signals, &vec![1.0; users], &vec![1.0; users])
}

/// A trace of `steps` [`write_uniform_step`]s of `users` users, plus a
/// groups frame of `groups` codes when given.
fn uniform_trace(groups: Option<usize>, users: usize, steps: usize) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), &header()).expect("header");
    if let Some(groups) = groups {
        let codes: Vec<u32> = (0..groups as u32).map(|i| i % 3).collect();
        writer
            .write_groups(&["a", "b", "c"], &codes)
            .expect("groups");
    }
    for _ in 0..steps {
        write_uniform_step(&mut writer, users).expect("step");
    }
    writer.finish().expect("footer")
}

/// The frames of a trace after its magic, each with its kind, length
/// and checksum.
fn frames(bytes: &[u8]) -> Vec<&[u8]> {
    let mut frames = Vec::new();
    let mut pos = MAGIC.len();
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().expect("4 bytes"));
        let end = pos + 9 + len as usize;
        frames.push(&bytes[pos..end]);
        pos = end;
    }
    frames
}

/// A trace with `users[k]` users at step `k`, plus a groups frame of
/// `groups` codes when given. The writer refuses such a trace, so it is
/// spliced from the frames of [`uniform_trace`]s: step `k` of one with
/// `users[k]` users is byte for byte the step `k` wanted here.
fn ragged_trace(groups: Option<usize>, users: &[usize]) -> Vec<u8> {
    let lead = uniform_trace(groups, 0, 0);
    let lead_frames = frames(&lead);
    let mut bytes = lead[..MAGIC.len()].to_vec();
    // The header and the groups frame, without the footer.
    for frame in &lead_frames[..lead_frames.len() - 1] {
        bytes.extend_from_slice(frame);
    }
    for (k, &n) in users.iter().enumerate() {
        bytes.extend_from_slice(frames(&uniform_trace(None, n, k + 1))[1 + k]);
    }
    let tail = uniform_trace(None, 1, users.len());
    bytes.extend_from_slice(frames(&tail).last().expect("a footer"));
    bytes
}

#[test]
fn inconsistent_user_counts_are_corrupt_not_panics() {
    // Steps of 3 users and then 2, and a groups frame of 5 codes over
    // 3-user steps: the writer refuses both, and every reader entry
    // point must name them as corrupt rather than panic downstream.
    for bytes in [ragged_trace(None, &[3, 2]), ragged_trace(Some(5), &[3, 3])] {
        let open = || TraceReader::new(&bytes[..]).expect("opens");
        let corrupt = |what: &str, outcome: Result<(), TraceError>| match outcome {
            Err(TraceError::Corrupt { what: why }) => assert!(why.contains("users"), "{why}"),
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        };
        corrupt("read_record", open().read_record().map(drop));
        corrupt(
            "replay",
            ReplayRunner::new(open(), EchoAi, MeanFilter::default())
                .run()
                .map(drop),
        );
        corrupt(
            "off-policy",
            evaluate_off_policy(open(), EchoAi, MeanFilter::default(), false).map(drop),
        );
    }
}

fn write_three_groups(writer: &mut TraceWriter<Vec<u8>>) -> Result<(), TraceError> {
    writer.write_groups(&["a", "b", "c"], &[0, 1, 2])
}

#[test]
fn the_writer_refuses_what_its_reader_rejects_and_writes_none_of_it() {
    type Frame = fn(&mut TraceWriter<Vec<u8>>) -> Result<(), TraceError>;
    // (case, groups first?, 3-user steps first, the refused frame, a
    // word its refusal names)
    let cases: [(&str, bool, usize, Frame, &str); 4] = [
        ("groups twice", true, 0, write_three_groups, "groups"),
        (
            "groups after a step",
            false,
            1,
            write_three_groups,
            "groups",
        ),
        (
            "users unlike step 0's",
            false,
            2,
            |w| write_uniform_step(w, 2),
            "step 0",
        ),
        (
            "users unlike the groups'",
            true,
            1,
            |w| write_uniform_step(w, 4),
            "groups frame",
        ),
    ];
    for (case, groups, steps, frame, names) in cases {
        let lead = |writer: &mut TraceWriter<Vec<u8>>| {
            if groups {
                write_three_groups(writer).expect("groups");
            }
            for _ in 0..steps {
                write_uniform_step(writer, 3).expect("step");
            }
        };
        let mut writer = TraceWriter::new(Vec::new(), &header()).expect("header");
        lead(&mut writer);
        match frame(&mut writer) {
            Err(TraceError::Refused { what }) => assert!(what.contains(names), "{case}: {what}"),
            other => panic!("{case}: expected Refused, got {other:?}"),
        }
        let bytes = writer.finish().expect("footer");

        let mut clean = TraceWriter::new(Vec::new(), &header()).expect("header");
        lead(&mut clean);
        assert!(
            bytes == clean.finish().expect("footer"),
            "{case}: a byte of the refused frame reached the stream"
        );
        let mut reader = TraceReader::new(&bytes[..]).expect("opens");
        assert_eq!(reader.groups().is_some(), groups, "{case}");
        let record = reader
            .read_record()
            .expect("every frame before the refusal reads");
        assert_eq!(record.steps(), steps, "{case}");
    }
}

#[test]
fn a_refused_frame_latches_in_the_step_sink() {
    let mut sink = TraceStepSink::new(Vec::new(), &header()).expect("header");
    sink.on_groups(&["a"], &[0, 0]);
    sink.on_groups(&["a"], &[0, 0]);
    match sink.finish() {
        Err(TraceError::Refused { what }) => assert!(what.contains("groups"), "{what}"),
        other => panic!(
            "expected the latched refusal, got {:?}",
            other.map(|b| b.len())
        ),
    }
}

#[test]
fn empty_trace_reads_back_header_and_groups() {
    let bytes = write_trace(&[]);
    let mut input: &[u8] = &bytes;
    let mut reader = TraceReader::new(&mut input).unwrap();
    assert_eq!(reader.header().seed, u64::MAX - 17, "u64 seeds survive");
    assert!(reader.groups().is_none(), "no steps -> no groups written");
    let mut frame = StepFrame::default();
    assert!(!reader.next_step(&mut frame).unwrap());
    let record = reader.read_record().unwrap();
    assert_eq!(record.steps(), 0);
}

#[test]
fn groups_roundtrip_with_labels() {
    let steps = vec![(
        vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        vec![1.0, 0.0, 1.0],
        vec![0.0, 1.0, 0.0],
        vec![0.5, 0.25, 0.125],
    )];
    let bytes = write_trace(&steps);
    let mut input: &[u8] = &bytes;
    let reader = TraceReader::new(&mut input).unwrap();
    let groups = reader.groups().expect("groups frame present");
    assert_eq!(groups.labels, vec!["a", "b", "c"]);
    assert_eq!(groups.codes, vec![0, 1, 2]);
    assert_eq!(groups.index_sets(), vec![vec![0], vec![1], vec![2]]);
}

#[test]
fn bad_magic_is_a_named_error() {
    let mut input: &[u8] = b"NOTATRACE-AT-ALL";
    match TraceReader::new(&mut input) {
        Err(TraceError::BadMagic) => {}
        other => panic!("expected BadMagic, got {:?}", other.err()),
    }
}

#[test]
fn checkpoint_frames_roundtrip_and_are_transparent_to_steps() {
    use eqimpact_core::ModelCheckpoint;
    let steps = [
        (
            vec![1.0, 2.0, 3.0, 4.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.5, 0.25],
        ),
        (
            vec![5.0, 6.0, 7.0, 8.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.25, 0.5],
        ),
    ];
    let checkpointed_header = header().with_checkpoints();
    assert_eq!(checkpointed_header.version, FORMAT_VERSION);
    let mut writer = TraceWriter::new(Vec::new(), &checkpointed_header).expect("header");
    let mut cp = ModelCheckpoint::new();
    for (k, (visible, signals, actions, filtered)) in steps.iter().enumerate() {
        let mut matrix = FeatureMatrix::new(2);
        for row in visible.chunks(2) {
            matrix.push_row(row);
        }
        writer
            .write_step(&matrix, signals, actions, filtered)
            .expect("step");
        cp.reset(k);
        cp.push_field("weights", &[0.5 + k as f64, -1.0]);
        cp.push_scalar("intercept", k as f64);
        writer.write_checkpoint(&cp).expect("checkpoint");
    }
    let bytes = writer.finish().expect("footer");

    // Interleaved read: step, then its checkpoint.
    let mut input: &[u8] = &bytes;
    let mut reader = TraceReader::new(&mut input).expect("opens");
    assert!(reader.header().checkpoints);
    let mut frame = StepFrame::default();
    let mut got = ModelCheckpoint::new();
    for k in 0..steps.len() {
        assert!(!reader.next_checkpoint(&mut got).expect("no checkpoint yet"));
        assert!(reader.next_step(&mut frame).expect("step"));
        assert!(reader.next_checkpoint(&mut got).expect("checkpoint"));
        assert_eq!(got.step, k);
        assert_eq!(got.field("weights"), Some(&[0.5 + k as f64, -1.0][..]));
        assert_eq!(got.scalar("intercept"), Some(k as f64));
    }
    assert!(!reader.next_step(&mut frame).expect("footer"));
    assert!(!reader.next_checkpoint(&mut got).expect("done"));

    // Step-only read: checkpoints are skipped transparently, the record
    // is unchanged.
    let mut input: &[u8] = &bytes;
    let mut reader = TraceReader::new(&mut input).expect("opens");
    let record = reader.read_record().expect("record");
    assert_eq!(record.steps(), steps.len());
    assert_eq!(record.signals(1), &steps[1].1[..]);
}

#[test]
fn checkpoint_free_headers_stay_base_version() {
    use eqimpact_core::scenario::TraceMeta;
    let meta = TraceMeta {
        scenario: "synthetic".to_string(),
        variant: "test".to_string(),
        trial: 0,
        scale: Scale::Quick,
        seed: 7,
        shards: 1,
        delay: 1,
        policy: RecordPolicy::Full,
    };
    let plain = TraceHeader::from_meta(&meta);
    assert_eq!(
        plain.version, 1,
        "plain traces keep the version-1 format for old readers"
    );
    assert!(!plain.checkpoints);
    let writer = TraceWriter::new(Vec::new(), &plain).unwrap();
    let bytes = writer.finish().unwrap();
    let mut input: &[u8] = &bytes;
    let reader = TraceReader::new(&mut input).unwrap();
    assert_eq!(reader.header().version, 1);
    assert!(!reader.header().checkpoints);
    assert_eq!(
        TraceHeader::from_meta(&meta).with_checkpoints().version,
        FORMAT_VERSION
    );
}

/// The magic and one header frame carrying `header`'s JSON, built by
/// hand, since the writer refuses the headers these tests need.
fn hand_built_header(header: &TraceHeader) -> Vec<u8> {
    let payload = Json::obj([
        ("version", (header.version as usize).to_json()),
        ("scenario", header.scenario.as_str().to_json()),
        ("variant", header.variant.as_str().to_json()),
        ("trial", header.trial.to_json()),
        ("scale", "quick".to_json()),
        ("seed", header.seed.to_string().as_str().to_json()),
        ("shards", header.shards.to_json()),
        ("delay", header.delay.to_json()),
        ("policy", "full".to_json()),
        ("checkpoints", header.checkpoints.to_json()),
    ])
    .render()
    .into_bytes();
    let mut stream = MAGIC.to_vec();
    stream.push(1); // the header frame's kind
    stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    stream.extend_from_slice(&crc32(&payload).to_le_bytes());
    stream.extend_from_slice(&payload);
    stream
}

/// Asserts that the writer refuses `header`, naming `field`, and writes
/// no byte.
fn assert_writer_refuses(header: &TraceHeader, field: &str) {
    let mut out = Vec::new();
    match TraceWriter::new(&mut out, header) {
        Err(TraceError::Refused { what }) => assert!(what.contains(field), "{what}"),
        other => panic!("{field}: expected Refused, got {:?}", other.err()),
    }
    assert!(out.is_empty(), "{field}: {} bytes written", out.len());
}

#[test]
fn unsafe_header_names_are_corrupt() {
    // Scenario and variant name output files, so a path separator, a
    // `..` or an empty name must not decode. A trial that its JSON number
    // cannot carry (2^64 after rounding) must not either.
    let mut cases = vec![(
        "trial",
        TraceHeader {
            trial: usize::MAX,
            ..header()
        },
    )];
    for bad in ["x/../../../escaped", "..", "", "a b", "a\\b"] {
        for field in ["scenario", "variant"] {
            let mut header = header();
            match field {
                "scenario" => header.scenario = bad.to_string(),
                _ => header.variant = bad.to_string(),
            }
            cases.push((field, header));
        }
    }
    for (field, header) in cases {
        assert_writer_refuses(&header, field);
        let bytes = hand_built_header(&header);
        match TraceReader::new(&bytes[..]) {
            Err(TraceError::Corrupt { what }) => assert!(what.contains(field), "{what}"),
            other => panic!("{header:?}: expected Corrupt, got {:?}", other.err()),
        }
    }
}

#[test]
fn future_versions_are_rejected_by_name() {
    // A header frame claiming version 99: the reader rejects it by name,
    // and the writer refuses to write it.
    let header = TraceHeader {
        version: 99,
        ..header()
    };
    assert_writer_refuses(&header, "version");
    match TraceReader::new(&hand_built_header(&header)[..]) {
        Err(TraceError::UnsupportedVersion(99)) => {}
        other => panic!("expected UnsupportedVersion, got {:?}", other.err()),
    }
}

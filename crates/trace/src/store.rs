//! The on-disk trace format: CRC-framed blocks around the column codec.
//!
//! ```text
//! magic  "EQTRACE1"                      (8 bytes)
//! frame* kind u8 | len u32 LE | crc32 u32 LE | payload[len]
//! ```
//!
//! Frame kinds, in stream order:
//!
//! 1. **header** — a compact JSON object (`version`, `scenario`,
//!    `variant`, `trial`, `scale`, `seed`, `shards`, `delay`, `policy`,
//!    `checkpoints`), so a trace is self-describing and the header stays
//!    extensible;
//! 2. **groups** (optional) — per-user group metadata: the labels and a
//!    column of group codes (e.g. race per user);
//! 3. **step** (repeated) — one loop step: the step index, the row/width
//!    shape, and four column blocks (visible features, signals, actions,
//!    filter outputs), each length-prefixed;
//! 4. **checkpoint** (optional, format version 2, after the step whose
//!    retrain it captures) — a [`ModelCheckpoint`]: the retrain step and
//!    named float columns of learned state (logistic weights, per-user
//!    memory, filter state), so replay can restore instead of retrain;
//! 5. **footer** — the step count and final shape, closing the stream; a
//!    missing footer is reported as a truncated trace.
//!
//! Traces without checkpoint frames are written as format version 1 —
//! exactly the pre-checkpoint format, so older readers keep reading
//! them; checkpointed traces carry version 2, which older readers
//! reject with the named [`TraceError::UnsupportedVersion`].
//!
//! Every payload is covered by a CRC-32; a flipped bit anywhere surfaces
//! as [`TraceError::ChecksumMismatch`] instead of bad data. The reader
//! is streaming — one frame is resident at a time, so memory is bounded
//! by the widest step, not the trace length — and a frame's buffer grows
//! only as its bytes arrive, so a length field cannot size it.

use crate::column::{
    decode_column, decode_f64_column, encode_column, plan_f64_column, TAG_MASK, TAG_RLE_BIT,
    TAG_SWAP_BIT,
};
use crate::TraceError;
use eqimpact_core::checkpoint::ModelCheckpoint;
use eqimpact_core::features::FeatureMatrix;
use eqimpact_core::recorder::{LoopRecord, RecordPolicy};
use eqimpact_core::scenario::{Scale, TraceMeta};
use eqimpact_stats::codec::{crc32, read_varint, write_varint};
use eqimpact_stats::json::{parse, Json, ToJson};
use eqimpact_telemetry::metrics as tm;
use std::io::{Read, Write};

/// The stream magic.
pub const MAGIC: &[u8; 8] = b"EQTRACE1";

/// The newest format version this crate reads and writes.
pub const FORMAT_VERSION: u32 = 2;

/// The version written for traces that use no optional feature — the
/// pre-checkpoint format, readable by version-1 readers.
const BASE_VERSION: u32 = 1;

const KIND_HEADER: u8 = 1;
const KIND_GROUPS: u8 = 2;
const KIND_STEP: u8 = 3;
const KIND_FOOTER: u8 = 4;
const KIND_CHECKPOINT: u8 = 5;

/// Hard cap on the fields a checkpoint frame may declare (a corrupt
/// count must not size buffers).
const MAX_CHECKPOINT_FIELDS: usize = 1 << 16;

/// Hard cap on a single frame's payload, so a corrupt length field
/// cannot ask the reader to allocate the universe.
const MAX_FRAME_LEN: u32 = 1 << 30;

/// How far ahead of the bytes actually read the reader reserves payload
/// space. A frame's length field is input: the buffer grows only as the
/// stream delivers bytes, so a short file that declares a huge frame
/// costs this much, not the declared length.
const PAYLOAD_RESERVE: usize = 64 << 10;

/// Hard cap on the *cells* a step or groups frame may declare
/// (`rows × width`, or group codes). Distinct from — and much lower
/// than — the byte cap: run-length encoding means a legitimately tiny
/// frame can expand to many values, so the bound is on elements, and it
/// is sized so even a deliberately crafted frame cannot demand more
/// than ~512 MiB of decoded buffer (CRC-32 is integrity, not
/// authentication). 2^26 cells still covers tens of millions of users
/// per step.
const MAX_FRAME_CELLS: usize = 1 << 26;

/// The cells a step frame of `rows × width` counts against
/// [`MAX_FRAME_CELLS`] (a width of 0 still counts each row), saturating
/// on overflow.
fn step_cells(rows: usize, width: usize) -> usize {
    rows.saturating_mul(width.max(1))
}

/// `Ok` when `count` is within the reader's `limit`; otherwise the
/// writer's refusal, naming what was counted and the limit.
fn within(what: &str, count: usize, limit: usize) -> Result<(), TraceError> {
    if count <= limit {
        Ok(())
    } else {
        Err(TraceError::Refused {
            what: format!("{what}: {count} is over the reader's limit of {limit}"),
        })
    }
}

// The writer's side of the reader's size limits, on declared sizes.

fn check_frame_len(len: usize) -> Result<(), TraceError> {
    within("frame payload bytes", len, MAX_FRAME_LEN as usize)
}

fn check_step_shape(rows: usize, width: usize) -> Result<(), TraceError> {
    within(
        "step cells (rows x width)",
        step_cells(rows, width),
        MAX_FRAME_CELLS,
    )
}

fn check_group_codes(count: usize) -> Result<(), TraceError> {
    within("group codes", count, MAX_FRAME_CELLS)
}

/// A checkpoint of `fields` fields, the longest holding `widest` values.
fn check_checkpoint_shape(fields: usize, widest: usize) -> Result<(), TraceError> {
    within("checkpoint fields", fields, MAX_CHECKPOINT_FIELDS)?;
    within("values in a checkpoint field", widest, MAX_FRAME_CELLS)
}

/// The self-describing provenance of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Format version of the stream.
    pub version: u32,
    /// Registry name of the recorded scenario. Readers accept only a
    /// non-empty name of ASCII letters, digits, `-` and `_`.
    pub scenario: String,
    /// Which of the scenario's loops was recorded (e.g. `scorecard`);
    /// the same character set as `scenario`.
    pub variant: String,
    /// Trial index within the recorded run.
    pub trial: usize,
    /// Scale of the recorded run.
    pub scale: Scale,
    /// Effective base seed of the recorded run.
    pub seed: u64,
    /// Intra-trial shard count of the recorded run (provenance only —
    /// records are shard-invariant).
    pub shards: usize,
    /// Feedback delay of the recorded loop, in steps.
    pub delay: usize,
    /// Record policy of the recorded run.
    pub policy: RecordPolicy,
    /// Whether the stream carries per-retrain model-checkpoint frames
    /// (a format-version-2 feature).
    pub checkpoints: bool,
}

impl TraceHeader {
    /// Builds a header from the scenario machinery's [`TraceMeta`]. The
    /// header starts at the base (checkpoint-free) format version; opt
    /// into checkpoint frames with [`Self::with_checkpoints`].
    pub fn from_meta(meta: &TraceMeta) -> Self {
        TraceHeader {
            version: BASE_VERSION,
            scenario: meta.scenario.clone(),
            variant: meta.variant.clone(),
            trial: meta.trial,
            scale: meta.scale,
            seed: meta.seed,
            shards: meta.shards,
            delay: meta.delay,
            policy: meta.policy,
            checkpoints: false,
        }
    }

    /// Declares that the stream will carry model-checkpoint frames,
    /// bumping the format version to [`FORMAT_VERSION`] (version-1
    /// readers reject such traces with a named
    /// [`TraceError::UnsupportedVersion`]).
    pub fn with_checkpoints(mut self) -> Self {
        self.checkpoints = true;
        self.version = FORMAT_VERSION;
        self
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("version", (self.version as usize).to_json()),
            ("scenario", self.scenario.as_str().to_json()),
            ("variant", self.variant.as_str().to_json()),
            ("trial", self.trial.to_json()),
            (
                "scale",
                match self.scale {
                    Scale::Paper => "paper",
                    Scale::Quick => "quick",
                }
                .to_json(),
            ),
            // Seeds are full u64s; JSON numbers are f64, so the seed
            // travels as a string to survive values above 2^53.
            ("seed", self.seed.to_string().as_str().to_json()),
            ("shards", self.shards.to_json()),
            ("delay", self.delay.to_json()),
            (
                "policy",
                match self.policy {
                    RecordPolicy::Full => "full",
                    RecordPolicy::Thin => "thin",
                }
                .to_json(),
            ),
            ("checkpoints", self.checkpoints.to_json()),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, TraceError> {
        let corrupt = |what: &str| TraceError::Corrupt {
            what: format!("header: {what}"),
        };
        let field = |name: &'static str| {
            doc.get(name)
                .ok_or_else(|| corrupt(&format!("missing {name}")))
        };
        let int = |name: &'static str| -> Result<usize, TraceError> {
            field(name)?
                .as_usize()
                .ok_or_else(|| corrupt(&format!("{name} is not an integer")))
        };
        let text = |name: &'static str| -> Result<String, TraceError> {
            Ok(field(name)?
                .as_str()
                .ok_or_else(|| corrupt(&format!("{name} is not a string")))?
                .to_string())
        };
        // Scenario and variant name output files (`experiments replay
        // --policy` writes `offpolicy_<scenario>_<policy>_vs_<variant>_…`),
        // so a separator or `..` in them would write outside `--out`.
        let name = |field: &'static str| -> Result<String, TraceError> {
            let value = text(field)?;
            let valid = !value.is_empty()
                && value
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
            if !valid {
                return Err(corrupt(&format!(
                    "{field} {value:?} must be non-empty and use only ASCII letters, digits, `-` and `_`"
                )));
            }
            Ok(value)
        };
        let version = int("version")? as u32;
        if version > FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let scale = match text("scale")?.as_str() {
            "paper" => Scale::Paper,
            "quick" => Scale::Quick,
            other => return Err(corrupt(&format!("unknown scale `{other}`"))),
        };
        let policy = match text("policy")?.as_str() {
            "full" => RecordPolicy::Full,
            "thin" => RecordPolicy::Thin,
            other => return Err(corrupt(&format!("unknown policy `{other}`"))),
        };
        let seed = text("seed")?
            .parse::<u64>()
            .map_err(|_| corrupt("seed is not a u64"))?;
        // Absent in version-1 headers; defaults to no checkpoints.
        let checkpoints = matches!(doc.get("checkpoints"), Some(Json::Bool(true)));
        Ok(TraceHeader {
            version,
            scenario: name("scenario")?,
            variant: name("variant")?,
            trial: int("trial")?,
            scale,
            seed,
            shards: int("shards")?,
            delay: int("delay")?,
            policy,
            checkpoints,
        })
    }
}

/// Reads a header frame's payload: the one validator of a header, for
/// the reader and for the writer's refusal alike.
fn parse_header(payload: &[u8]) -> Result<TraceHeader, TraceError> {
    let text = std::str::from_utf8(payload).map_err(|_| TraceError::Corrupt {
        what: "header is not UTF-8".to_string(),
    })?;
    let doc = parse(text).map_err(|e| TraceError::Corrupt {
        what: format!("header JSON: {e}"),
    })?;
    TraceHeader::from_json(&doc)
}

/// Per-user group metadata of a trace (e.g. race per user).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceGroups {
    /// Group labels; `codes[i]` indexes into them.
    pub labels: Vec<String>,
    /// One group code per user.
    pub codes: Vec<u32>,
}

impl TraceGroups {
    /// The users of each group, as index sets in label order (the shape
    /// `eqimpact_core::fairness` takes).
    pub fn index_sets(&self) -> Vec<Vec<usize>> {
        let mut sets = vec![Vec::new(); self.labels.len()];
        for (i, &code) in self.codes.iter().enumerate() {
            if let Some(set) = sets.get_mut(code as usize) {
                set.push(i);
            }
        }
        sets
    }
}

/// One decoded step of a trace, with reusable buffers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepFrame {
    /// The step index `k`.
    pub step: usize,
    /// The visible features the AI saw at this step.
    pub visible: FeatureMatrix,
    /// The broadcast signals `π(k, ·)`.
    pub signals: Vec<f64>,
    /// The population's actions `y(k)`.
    pub actions: Vec<f64>,
    /// The feedback filter's per-user output.
    pub filtered: Vec<f64>,
}

/// Writes one frame, or refuses it before its first byte when the
/// payload is longer than the reader accepts.
fn write_frame<W: Write>(out: &mut W, kind: u8, payload: &[u8]) -> Result<(), TraceError> {
    check_frame_len(payload.len())?;
    out.write_all(&[kind])?;
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(&crc32(payload).to_le_bytes())?;
    out.write_all(payload)?;
    tm::TRACE_FRAMES_WRITTEN.incr();
    tm::TRACE_FRAME_BYTES.observe(payload.len() as u64);
    Ok(())
}

/// Tallies one f64 column's chosen block (its codec tag and length in
/// bytes) into the per-codec-choice byte counters (raw = 8 bytes per
/// value).
fn note_column_encoding(values: usize, tag: u8, block_len: usize) {
    if !eqimpact_telemetry::enabled() {
        return;
    }
    let raw = (values as u64) * 8;
    let encoded = block_len as u64;
    let (raw_counter, enc_counter) = match tag & TAG_MASK {
        0 => (&tm::TRACE_RAW_BYTES_PLAIN, &tm::TRACE_ENC_BYTES_PLAIN),
        TAG_RLE_BIT => (&tm::TRACE_RAW_BYTES_RLE, &tm::TRACE_ENC_BYTES_RLE),
        TAG_SWAP_BIT => (&tm::TRACE_RAW_BYTES_SWAP, &tm::TRACE_ENC_BYTES_SWAP),
        _ => (&tm::TRACE_RAW_BYTES_SWAP_RLE, &tm::TRACE_ENC_BYTES_SWAP_RLE),
    };
    raw_counter.add(raw);
    enc_counter.add(encoded);
}

/// Appends one f64 column to `payload`: its block length, then the block,
/// written once in the form its sizing pass chose.
fn push_f64_block(payload: &mut Vec<u8>, values: &[f64]) {
    let plan = plan_f64_column(values);
    note_column_encoding(values.len(), plan.tag(), plan.block_len());
    write_varint(payload, plan.block_len() as u64);
    plan.write(payload);
}

/// Streaming writer of the trace format. Create with a header, feed it
/// [`Self::write_groups`] (optional, before the first step) and one
/// [`Self::write_step`] per loop step, and close it with
/// [`Self::finish`] — dropping an unfinished writer leaves a trace
/// without a footer, which readers report as truncated.
///
/// The writer refuses every frame its [`TraceReader`] would reject, with
/// a [`TraceError::Refused`] that names the rule, before writing any
/// byte of the frame; the frames before it stay a readable trace once
/// [`Self::finish`]ed. It refuses:
///
/// * a payload over the reader's 1 GiB frame limit;
/// * a step of more than 2^26 cells (`rows × width`), a groups frame of
///   more than 2^26 codes, and a checkpoint of more than 2^16 fields or
///   with a field of more than 2^26 values;
/// * a groups frame anywhere but first after the header (so also a
///   second one);
/// * a step whose user count differs from the groups frame's or, without
///   one, from step 0's.
///
/// [`Self::new`] likewise refuses, before the magic, a header its reader
/// rejects: a name that could escape an output directory, a newer format
/// version, or a count its JSON number cannot carry.
pub struct TraceWriter<W: Write> {
    out: W,
    steps: usize,
    rows: usize,
    width: usize,
    /// The user count every step must carry, with its source: the groups
    /// frame when written, else step 0.
    users: Option<(usize, &'static str)>,
    /// Whether any frame has followed the header (a groups frame must
    /// come first).
    body: bool,
    payload: Vec<u8>,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace: writes the magic and the header frame, or writes
    /// nothing and refuses a header that [`TraceReader::new`] would
    /// reject, naming the field.
    pub fn new(mut out: W, header: &TraceHeader) -> Result<Self, TraceError> {
        let payload = header.to_json().render().into_bytes();
        parse_header(&payload).map_err(|e| TraceError::Refused {
            what: match e {
                TraceError::Corrupt { what } => what,
                other => format!("header: {other}"),
            },
        })?;
        out.write_all(MAGIC)?;
        write_frame(&mut out, KIND_HEADER, &payload)?;
        Ok(TraceWriter {
            out,
            steps: 0,
            rows: 0,
            width: 0,
            users: None,
            body: false,
            payload: Vec::new(),
        })
    }

    /// Writes the group-metadata frame: at most once, before any other
    /// frame (see the refusals above).
    pub fn write_groups(&mut self, labels: &[&str], codes: &[u32]) -> Result<(), TraceError> {
        if self.body {
            return Err(TraceError::Refused {
                what: "a groups frame must come first after the header, at most once".to_string(),
            });
        }
        check_group_codes(codes.len())?;
        self.payload.clear();
        write_varint(&mut self.payload, labels.len() as u64);
        for label in labels {
            write_varint(&mut self.payload, label.len() as u64);
            self.payload.extend_from_slice(label.as_bytes());
        }
        write_varint(&mut self.payload, codes.len() as u64);
        let words: Vec<u64> = codes.iter().map(|&c| u64::from(c)).collect();
        encode_column(&words, &mut self.payload);
        write_frame(&mut self.out, KIND_GROUPS, &self.payload)?;
        self.body = true;
        self.users = Some((codes.len(), "the groups frame"));
        Ok(())
    }

    /// Writes one step frame, each column's block straight into the
    /// frame.
    ///
    /// # Panics
    /// Panics when the channel lengths disagree with each other (the
    /// runner invariant), not on I/O — I/O failures are `Err`.
    pub fn write_step(
        &mut self,
        visible: &FeatureMatrix,
        signals: &[f64],
        actions: &[f64],
        filtered: &[f64],
    ) -> Result<(), TraceError> {
        let n = signals.len();
        assert_eq!(visible.row_count(), n, "visible rows");
        assert_eq!(actions.len(), n, "actions length");
        assert_eq!(filtered.len(), n, "filtered length");
        let width = visible.width();
        check_step_shape(n, width)?;
        if let Some((users, source)) = self.users.filter(|&(users, _)| users != n) {
            return Err(TraceError::Refused {
                what: format!("step {} has {n} users but {source} has {users}", self.steps),
            });
        }
        self.payload.clear();
        write_varint(&mut self.payload, self.steps as u64);
        write_varint(&mut self.payload, n as u64);
        write_varint(&mut self.payload, width as u64);
        // One column per visible feature — the run's columnar layout is
        // already the trace layout, so each column encodes straight from
        // its storage with no gather — then the three per-user channels.
        for j in 0..width {
            push_f64_block(&mut self.payload, visible.col(j));
        }
        for channel in [signals, actions, filtered] {
            push_f64_block(&mut self.payload, channel);
        }
        write_frame(&mut self.out, KIND_STEP, &self.payload)?;
        self.body = true;
        self.users.get_or_insert((n, "step 0"));
        self.rows = n;
        self.width = width;
        self.steps += 1;
        Ok(())
    }

    /// Writes one model-checkpoint frame (format version 2). Call right
    /// after the [`Self::write_step`] whose retrain the checkpoint
    /// captures; the header should have been built
    /// [`TraceHeader::with_checkpoints`] so readers expect the frames.
    pub fn write_checkpoint(&mut self, checkpoint: &ModelCheckpoint) -> Result<(), TraceError> {
        let widest = checkpoint.fields().map(|(_, values)| values.len()).max();
        check_checkpoint_shape(checkpoint.field_count(), widest.unwrap_or(0))?;
        self.payload.clear();
        write_varint(&mut self.payload, checkpoint.step as u64);
        write_varint(&mut self.payload, checkpoint.field_count() as u64);
        for (name, values) in checkpoint.fields() {
            write_varint(&mut self.payload, name.len() as u64);
            self.payload.extend_from_slice(name.as_bytes());
            write_varint(&mut self.payload, values.len() as u64);
            push_f64_block(&mut self.payload, values);
        }
        write_frame(&mut self.out, KIND_CHECKPOINT, &self.payload)?;
        self.body = true;
        Ok(())
    }

    /// Writes the footer, flushes, and returns the underlying writer.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.payload.clear();
        write_varint(&mut self.payload, self.steps as u64);
        write_varint(&mut self.payload, self.rows as u64);
        write_varint(&mut self.payload, self.width as u64);
        write_frame(&mut self.out, KIND_FOOTER, &self.payload)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streaming reader of the trace format: validates the magic and the
/// header eagerly, then yields one [`StepFrame`] at a time —
/// bounded-memory iteration regardless of trace length.
pub struct TraceReader<R: Read> {
    input: R,
    header: TraceHeader,
    groups: Option<TraceGroups>,
    /// The kind of the next frame when it has already been read into
    /// `payload` (one-frame lookahead, so the optional groups frame can be
    /// consumed during construction and a checkpoint can be peeked for).
    pending: Option<u8>,
    frame_index: usize,
    steps_read: usize,
    /// The user count every step must carry, with its source: the
    /// groups frame when present, else the first step.
    users: Option<(usize, &'static str)>,
    done: bool,
    /// The current frame's payload, reused from frame to frame.
    payload: Vec<u8>,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace: reads the magic, the header frame and (if present)
    /// the groups frame.
    pub fn new(mut input: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 8];
        read_exact_or(&mut input, &mut magic, "magic")?;
        if &magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut frame_index = 0usize;
        let mut payload = Vec::new();
        let kind = read_frame_into(&mut input, &mut frame_index, &mut payload)?
            .ok_or(TraceError::Truncated { what: "header" })?;
        if kind != KIND_HEADER {
            return Err(TraceError::Corrupt {
                what: format!("first frame has kind {kind}, expected header"),
            });
        }
        let header = parse_header(&payload)?;

        let mut reader = TraceReader {
            input,
            header,
            groups: None,
            pending: None,
            frame_index,
            steps_read: 0,
            users: None,
            done: false,
            payload,
        };
        reader.pending = reader.next_frame()?;
        if reader.pending == Some(KIND_GROUPS) {
            let groups = decode_groups(&reader.payload)?;
            reader.users = Some((groups.codes.len(), "the groups frame"));
            reader.groups = Some(groups);
            reader.pending = reader.next_frame()?;
        }
        Ok(reader)
    }

    /// The trace's provenance header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The per-user group metadata, when the trace carries any.
    pub fn groups(&self) -> Option<&TraceGroups> {
        self.groups.as_ref()
    }

    /// Decodes the next step into `frame` (buffers reused). Returns
    /// `Ok(false)` once the footer is reached; a stream that ends
    /// without a footer is a [`TraceError::Truncated`], and a step whose
    /// user count differs from the groups frame's or the first step's is
    /// [`TraceError::Corrupt`].
    pub fn next_step(&mut self, frame: &mut StepFrame) -> Result<bool, TraceError> {
        if self.done {
            return Ok(false);
        }
        loop {
            let kind = match self.pending.take() {
                Some(kind) => kind,
                None => self.next_frame()?.ok_or(TraceError::Truncated {
                    what: "step or footer frame",
                })?,
            };
            match kind {
                KIND_STEP => {
                    decode_step(&self.payload, frame)?;
                    if frame.step != self.steps_read {
                        return Err(TraceError::Corrupt {
                            what: format!(
                                "step frame out of order: found step {}, expected {}",
                                frame.step, self.steps_read
                            ),
                        });
                    }
                    let rows = frame.signals.len();
                    let (users, source) = *self.users.get_or_insert((rows, "step 0"));
                    if rows != users {
                        return Err(TraceError::Corrupt {
                            what: format!(
                                "step {} has {rows} users but {source} has {users}",
                                frame.step
                            ),
                        });
                    }
                    self.steps_read += 1;
                    return Ok(true);
                }
                KIND_FOOTER => {
                    let mut pos = 0;
                    let steps =
                        read_varint(&self.payload, &mut pos).ok_or(TraceError::Truncated {
                            what: "footer step count",
                        })?;
                    if steps as usize != self.steps_read {
                        return Err(TraceError::Corrupt {
                            what: format!(
                                "footer declares {steps} steps but {} were read",
                                self.steps_read
                            ),
                        });
                    }
                    self.done = true;
                    return Ok(false);
                }
                // Checkpoint frames are transparent to step iteration:
                // callers that don't ask for them (`read_record`, an
                // off-policy evaluation that retrains) skip straight to
                // the next step.
                KIND_CHECKPOINT => continue,
                other => {
                    return Err(TraceError::Corrupt {
                        what: format!("unexpected frame kind {other} in the step stream"),
                    })
                }
            }
        }
    }

    /// Decodes the next frame **if** it is a model checkpoint (buffers
    /// reused), leaving step iteration untouched otherwise. The
    /// checkpoint of step `k`'s retrain sits between the step-`k` frame
    /// and the next step frame, so a replayer calls this right after
    /// consuming step `k`.
    pub fn next_checkpoint(
        &mut self,
        checkpoint: &mut ModelCheckpoint,
    ) -> Result<bool, TraceError> {
        if self.done {
            return Ok(false);
        }
        if self.pending.is_none() {
            self.pending = self.next_frame()?;
        }
        if self.pending != Some(KIND_CHECKPOINT) {
            return Ok(false);
        }
        self.pending = None;
        decode_checkpoint(&self.payload, checkpoint)?;
        Ok(true)
    }

    /// Reads the next frame into the reusable payload buffer.
    fn next_frame(&mut self) -> Result<Option<u8>, TraceError> {
        read_frame_into(&mut self.input, &mut self.frame_index, &mut self.payload)
    }

    /// Reads the remaining steps into a [`LoopRecord`] under the
    /// header's record policy (streaming, so peak memory is one frame
    /// plus the record itself).
    // analyze::allow(R8): trace/tests/properties.rs reads traces back into records with it
    pub fn read_record(&mut self) -> Result<LoopRecord, TraceError> {
        let mut frame = StepFrame::default();
        let mut record: Option<LoopRecord> = None;
        while self.next_step(&mut frame)? {
            let r = record.get_or_insert_with(|| {
                LoopRecord::with_policy(frame.signals.len(), self.header.policy)
            });
            r.push_step(&frame.signals, &frame.actions, &frame.filtered);
        }
        Ok(record.unwrap_or_else(|| {
            let users = self.groups.as_ref().map(|g| g.codes.len()).unwrap_or(0);
            LoopRecord::with_policy(users, self.header.policy)
        }))
    }
}

fn read_exact_or<R: Read>(
    input: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), TraceError> {
    input.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated { what }
        } else {
            TraceError::Io(e)
        }
    })
}

/// Reads one frame into the reusable `payload` buffer; `Ok(None)` at a
/// clean end-of-stream boundary (no bytes at all), `Err(Truncated)`
/// mid-frame. The buffer grows with the bytes read, at most
/// [`PAYLOAD_RESERVE`] ahead of them, never to the declared length up
/// front.
fn read_frame_into<R: Read>(
    input: &mut R,
    frame_index: &mut usize,
    payload: &mut Vec<u8>,
) -> Result<Option<u8>, TraceError> {
    let mut kind = [0u8; 1];
    match input.read_exact(&mut kind) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(TraceError::Io(e)),
    }
    let mut word = [0u8; 4];
    read_exact_or(input, &mut word, "frame length")?;
    let len = u32::from_le_bytes(word);
    if len > MAX_FRAME_LEN {
        return Err(TraceError::Corrupt {
            what: format!("frame {} declares an absurd length {len}", frame_index),
        });
    }
    read_exact_or(input, &mut word, "frame checksum")?;
    let expected = u32::from_le_bytes(word);
    payload.clear();
    payload.reserve(PAYLOAD_RESERVE.min(len as usize));
    let read = input.by_ref().take(u64::from(len)).read_to_end(payload)?;
    if read < len as usize {
        return Err(TraceError::Truncated {
            what: "frame payload",
        });
    }
    if crc32(payload) != expected {
        tm::TRACE_CHECKSUM_FAILURES.incr();
        return Err(TraceError::ChecksumMismatch {
            frame: *frame_index,
        });
    }
    *frame_index += 1;
    tm::TRACE_FRAMES_READ.incr();
    Ok(Some(kind[0]))
}

fn decode_groups(payload: &[u8]) -> Result<TraceGroups, TraceError> {
    let truncated = TraceError::Truncated {
        what: "groups frame",
    };
    let mut pos = 0;
    let label_count = read_varint(payload, &mut pos).ok_or(truncated)?;
    let mut labels = Vec::with_capacity(label_count.min(64) as usize);
    for _ in 0..label_count {
        let len = read_varint(payload, &mut pos).ok_or(TraceError::Truncated {
            what: "group label",
        })? as usize;
        let end =
            pos.checked_add(len)
                .filter(|&e| e <= payload.len())
                .ok_or(TraceError::Truncated {
                    what: "group label bytes",
                })?;
        let label = std::str::from_utf8(&payload[pos..end]).map_err(|_| TraceError::Corrupt {
            what: "group label is not UTF-8".to_string(),
        })?;
        labels.push(label.to_string());
        pos = end;
    }
    let count = read_varint(payload, &mut pos).ok_or(TraceError::Truncated {
        what: "group code count",
    })? as usize;
    // Same absurd-shape guard as step frames: a corrupt count must be
    // rejected before the decoder sizes buffers for it (no-panic
    // contract; RLE means a *valid* count can exceed the byte length).
    if count > MAX_FRAME_CELLS {
        return Err(TraceError::Corrupt {
            what: format!("groups frame declares an absurd code count {count}"),
        });
    }
    let mut words = Vec::new();
    decode_column(payload, &mut pos, count, &mut words).ok_or(TraceError::Corrupt {
        what: "group code column does not decode".to_string(),
    })?;
    let codes = words
        .iter()
        .map(|&w| u32::try_from(w))
        .collect::<Result<Vec<u32>, _>>()
        .map_err(|_| TraceError::Corrupt {
            what: "group code exceeds u32".to_string(),
        })?;
    Ok(TraceGroups { labels, codes })
}

/// What a float block belongs to, as its errors name it.
#[derive(Clone, Copy)]
enum Block {
    /// A feature or channel column of a step frame.
    Channel,
    /// A field of a checkpoint frame.
    Checkpoint,
}

/// Reads the length-prefixed float block of `len` values at `*pos`,
/// handing each value to `put`, and leaves `*pos` just past the block.
/// The block must end where its length says: a short block, one whose
/// values do not decode, and one with bytes left over are each a named
/// error.
fn read_block(
    payload: &[u8],
    pos: &mut usize,
    len: usize,
    block: Block,
    put: impl FnMut(f64),
) -> Result<(), TraceError> {
    let (name, length, bytes) = match block {
        Block::Channel => ("channel", "channel block length", "channel block"),
        Block::Checkpoint => ("checkpoint", "checkpoint block length", "checkpoint block"),
    };
    let block_len =
        read_varint(payload, pos).ok_or(TraceError::Truncated { what: length })? as usize;
    let end = pos
        .checked_add(block_len)
        .filter(|&e| e <= payload.len())
        .ok_or(TraceError::Truncated { what: bytes })?;
    let mut block_pos = *pos;
    decode_f64_column(&payload[..end], &mut block_pos, len, put).ok_or_else(|| {
        TraceError::Corrupt {
            what: format!("{name} column does not decode"),
        }
    })?;
    if block_pos != end {
        return Err(TraceError::Corrupt {
            what: format!("{name} block has trailing bytes"),
        });
    }
    *pos = end;
    Ok(())
}

fn decode_checkpoint(payload: &[u8], checkpoint: &mut ModelCheckpoint) -> Result<(), TraceError> {
    let truncated = |what: &'static str| TraceError::Truncated { what };
    let mut pos = 0;
    let step = read_varint(payload, &mut pos).ok_or(truncated("checkpoint step"))? as usize;
    let field_count =
        read_varint(payload, &mut pos).ok_or(truncated("checkpoint field count"))? as usize;
    if field_count > MAX_CHECKPOINT_FIELDS {
        return Err(TraceError::Corrupt {
            what: format!("checkpoint frame declares an absurd field count {field_count}"),
        });
    }
    checkpoint.reset(step);
    for _ in 0..field_count {
        let name_len =
            read_varint(payload, &mut pos).ok_or(truncated("checkpoint field name"))? as usize;
        let end = pos
            .checked_add(name_len)
            .filter(|&e| e <= payload.len())
            .ok_or(truncated("checkpoint field name bytes"))?;
        let name = std::str::from_utf8(&payload[pos..end]).map_err(|_| TraceError::Corrupt {
            what: "checkpoint field name is not UTF-8".to_string(),
        })?;
        pos = end;
        let count =
            read_varint(payload, &mut pos).ok_or(truncated("checkpoint value count"))? as usize;
        if count > MAX_FRAME_CELLS {
            return Err(TraceError::Corrupt {
                what: format!("checkpoint field declares an absurd value count {count}"),
            });
        }
        let column = checkpoint.field_mut(name);
        read_block(payload, &mut pos, count, Block::Checkpoint, |v| {
            column.push(v)
        })?;
    }
    Ok(())
}

fn decode_step(payload: &[u8], frame: &mut StepFrame) -> Result<(), TraceError> {
    let truncated = |what: &'static str| TraceError::Truncated { what };
    let mut pos = 0;
    frame.step = read_varint(payload, &mut pos).ok_or(truncated("step index"))? as usize;
    let rows = read_varint(payload, &mut pos).ok_or(truncated("step row count"))? as usize;
    let width = read_varint(payload, &mut pos).ok_or(truncated("step width"))? as usize;
    if step_cells(rows, width) > MAX_FRAME_CELLS {
        return Err(TraceError::Corrupt {
            what: format!("step frame declares an absurd shape {rows} x {width}"),
        });
    }
    frame.visible.reshape(rows, width);
    for j in 0..width {
        let mut cells = frame.visible.col_mut(j).iter_mut();
        read_block(payload, &mut pos, rows, Block::Channel, |v| {
            if let Some(cell) = cells.next() {
                *cell = v;
            }
        })?;
    }
    for channel in [&mut frame.signals, &mut frame.actions, &mut frame.filtered] {
        channel.clear();
        read_block(payload, &mut pos, rows, Block::Channel, |v| channel.push(v))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A length field is input: a frame that declares 64 MiB and then
    /// ends is a truncation, found without reserving the declared size.
    #[test]
    fn a_frame_that_declares_more_than_the_stream_holds_allocates_only_what_arrives() {
        let mut stream = vec![KIND_STEP];
        stream.extend_from_slice(&(64u32 << 20).to_le_bytes());
        stream.extend_from_slice(&0u32.to_le_bytes());
        stream.extend_from_slice(&[7; 100]);
        let mut payload = Vec::new();
        let mut frame_index = 0;
        let result = read_frame_into(&mut stream.as_slice(), &mut frame_index, &mut payload);
        assert!(
            matches!(
                result,
                Err(TraceError::Truncated {
                    what: "frame payload"
                })
            ),
            "{result:?}"
        );
        assert!(
            payload.capacity() < 1 << 20,
            "the payload buffer grew to {} bytes",
            payload.capacity()
        );
        assert_eq!(frame_index, 0, "no frame was read");
    }

    fn refused(result: Result<(), TraceError>) -> bool {
        matches!(result, Err(TraceError::Refused { .. }))
    }

    /// A payload of one varint per size, in order.
    fn declared(sizes: &[usize]) -> Vec<u8> {
        let mut payload = Vec::new();
        for &size in sizes {
            write_varint(&mut payload, size as u64);
        }
        payload
    }

    /// The writer's checks, on declared sizes: each accepts its limit
    /// and refuses one past it, as the reader does.
    #[test]
    fn size_checks_refuse_one_past_the_readers_limits() {
        let cells = MAX_FRAME_CELLS;
        assert!(check_frame_len(MAX_FRAME_LEN as usize).is_ok());
        assert!(refused(check_frame_len(MAX_FRAME_LEN as usize + 1)));
        // Over 4 GiB the length field would have wrapped.
        assert!(refused(check_frame_len((1 << 32) + 5)));

        assert!(check_step_shape(cells, 0).is_ok());
        assert!(check_step_shape(cells, 1).is_ok());
        assert!(check_step_shape(cells / 4, 4).is_ok());
        assert!(refused(check_step_shape(cells + 1, 0)));
        assert!(refused(check_step_shape(cells / 4 + 1, 4)));
        assert!(
            refused(check_step_shape(usize::MAX, 2)),
            "rows x width overflows"
        );

        assert!(check_group_codes(cells).is_ok());
        assert!(refused(check_group_codes(cells + 1)));

        assert!(check_checkpoint_shape(MAX_CHECKPOINT_FIELDS, cells).is_ok());
        assert!(refused(check_checkpoint_shape(
            MAX_CHECKPOINT_FIELDS + 1,
            0
        )));
        assert!(refused(check_checkpoint_shape(1, cells + 1)));
        match check_step_shape(cells + 1, 1) {
            Err(e) => assert!(e.to_string().contains(&cells.to_string()), "{e}"),
            Ok(()) => unreachable!(),
        }
    }

    /// The reader draws the same lines: a frame that declares one past a
    /// limit is rejected as absurd before anything is sized for it, and
    /// (where that allocates nothing) one at the limit fails only later.
    #[test]
    fn the_reader_rejects_what_the_writer_refuses() {
        let absurd = |result: Result<(), TraceError>| matches!(result, Err(TraceError::Corrupt { what }) if what.contains("absurd"));
        let cells = MAX_FRAME_CELLS;
        // At the limit a step frame would size its matrix, so only the
        // refusals are read here.
        let step = |rows: usize, width: usize| {
            decode_step(&declared(&[0, rows, width]), &mut StepFrame::default())
        };
        assert!(absurd(step(cells / 4 + 1, 4)));
        assert!(absurd(step(cells + 1, 0)));

        let groups = |count: usize| decode_groups(&declared(&[0, count])).map(drop);
        assert!(!absurd(groups(cells)));
        assert!(absurd(groups(cells + 1)));

        let checkpoint =
            |sizes: &[usize]| decode_checkpoint(&declared(sizes), &mut ModelCheckpoint::new());
        assert!(!absurd(checkpoint(&[0, MAX_CHECKPOINT_FIELDS])));
        assert!(absurd(checkpoint(&[0, MAX_CHECKPOINT_FIELDS + 1])));
        // One field, named "", of `count` values.
        assert!(!absurd(checkpoint(&[0, 1, 0, cells])));
        assert!(absurd(checkpoint(&[0, 1, 0, cells + 1])));

        for (len, rejected) in [(MAX_FRAME_LEN, false), (MAX_FRAME_LEN + 1, true)] {
            let mut stream = vec![KIND_STEP];
            stream.extend_from_slice(&len.to_le_bytes());
            stream.extend_from_slice(&0u32.to_le_bytes());
            let result = read_frame_into(&mut stream.as_slice(), &mut 0, &mut Vec::new());
            let absurd =
                matches!(result, Err(TraceError::Corrupt { what }) if what.contains("absurd"));
            assert_eq!(absurd, rejected, "{len}");
        }
    }

    /// A decode error as `<variant>: <what>`, for the two variants a
    /// malformed block may give.
    fn named(result: Result<(), TraceError>) -> String {
        match result {
            Err(TraceError::Truncated { what }) => format!("truncated: {what}"),
            Err(TraceError::Corrupt { what }) => format!("corrupt: {what}"),
            other => panic!("expected a truncated or corrupt block, got {other:?}"),
        }
    }

    /// A frame whose CRC holds but whose float block does not: a block
    /// that is cut short, one with bytes left over and one that encodes
    /// fewer values than its frame declares are each a named error, in a
    /// step frame's first channel and in a checkpoint field alike.
    #[test]
    fn malformed_blocks_are_named_errors() {
        let mut two = Vec::new();
        plan_f64_column(&[1.5, -2.0]).write(&mut two);
        type Prefix = fn(usize) -> Vec<u8>;
        type Decode = fn(&[u8]) -> Result<(), TraceError>;
        // Each block kind: the name its errors carry, the payload before
        // a block of `count` values, and its frame's decoder. A step
        // frame's first block is its first feature column at width 1 and
        // its signals at width 0.
        let step: Decode = |payload| decode_step(payload, &mut StepFrame::default());
        let kinds: [(&str, Prefix, Decode); 3] = [
            ("channel", |count| declared(&[0, count, 1]), step),
            ("channel", |count| declared(&[0, count, 0]), step),
            (
                "checkpoint",
                |count| {
                    let mut payload = declared(&[0, 1, 1]);
                    payload.push(b'w');
                    write_varint(&mut payload, count as u64);
                    payload
                },
                |payload| decode_checkpoint(payload, &mut ModelCheckpoint::new()),
            ),
        ];
        for (kind, prefix, decode) in kinds {
            // (values declared, the block-length field and block, error)
            let cases = [
                (2, None, format!("truncated: {kind} block length")),
                (
                    2,
                    Some((two.len() + 1, two.clone())),
                    format!("truncated: {kind} block"),
                ),
                (
                    2,
                    Some((two.len() + 1, [&two[..], &[0]].concat())),
                    format!("corrupt: {kind} block has trailing bytes"),
                ),
                (
                    3,
                    Some((two.len(), two.clone())),
                    format!("corrupt: {kind} column does not decode"),
                ),
            ];
            for (count, block, expected) in cases {
                let mut payload = prefix(count);
                if let Some((block_len, block)) = block {
                    write_varint(&mut payload, block_len as u64);
                    payload.extend_from_slice(&block);
                }
                assert_eq!(named(decode(&payload)), expected);
            }
        }

        // 2^26 rows at width 0 size no matrix, and a 3-byte channel
        // block of two values must not size a channel from the rows.
        let mut payload = declared(&[0, MAX_FRAME_CELLS, 0, 3]);
        payload.extend_from_slice(&[0, 2, 2]);
        let mut frame = StepFrame::default();
        assert_eq!(
            named(decode_step(&payload, &mut frame)),
            "corrupt: channel column does not decode"
        );
        for channel in [&frame.signals, &frame.actions, &frame.filtered] {
            assert!(
                channel.capacity() <= payload.len(),
                "a channel grew to {} values from a {}-byte payload",
                channel.capacity(),
                payload.len()
            );
        }
    }
}

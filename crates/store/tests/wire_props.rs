//! Property tests for the framed wire protocol.
//!
//! Two directions:
//!
//! * **round-trip** — every frame type, with generated field values,
//!   survives `encode → read_frame` bit-exactly;
//! * **totality over hostile bytes** — truncations, oversized length
//!   prefixes, and arbitrary garbage must *error*, never panic, and
//!   never allocate from a length field the body cannot back.
//!
//! The codec is also *canonical*: any body that decodes at all
//! re-encodes to the identical bytes, which the garbage test checks
//! for free whenever random bytes happen to form a valid frame.

use dynvote_core::state::ReplicaState;
use dynvote_store::wire::{read_frame, Frame, FrameError, MAX_FRAME};
use dynvote_types::{SiteId, SiteSet};
use proptest::collection::vec;
use proptest::prelude::*;

/// Every frame type, fields filled from the drawn values — the
/// exhaustive per-variant list the round-trip property walks.
#[allow(clippy::too_many_arguments)]
fn all_frames(
    ticket: u64,
    from: usize,
    to: usize,
    version: u64,
    mask: u64,
    flag: bool,
    blob: Vec<u8>,
    text: String,
) -> Vec<Frame> {
    let from = SiteId::new(from);
    let to = SiteId::new(to);
    let state = ReplicaState {
        op: ticket ^ 0x5a5a,
        version,
        partition: SiteSet::from_bits(mask),
    };
    vec![
        Frame::StartReq {
            ticket,
            from,
            to,
            mark_pending: flag,
        },
        Frame::StateRep {
            ticket,
            from,
            to,
            state,
        },
        Frame::Commit {
            ticket,
            from,
            to,
            state,
            value: if flag { Some(blob.clone()) } else { None },
        },
        Frame::CommitDelta {
            ticket,
            from,
            to,
            state,
            base: version.wrapping_sub(1),
            puts: blob.clone(),
        },
        Frame::CommitAck { ticket, from, to },
        Frame::CopyReq { ticket, from, to },
        Frame::CopyRep {
            ticket,
            from,
            to,
            version,
            value: blob.clone(),
        },
        Frame::Release {
            ticket,
            from,
            keep: SiteSet::from_bits(mask),
        },
        Frame::Abstain { ticket, from, to },
        Frame::Recover,
        Frame::Status,
        Frame::Deny { site: from },
        Frame::Allow { site: to },
        Frame::HealLinks,
        Frame::Done {
            detail: text.clone(),
        },
        Frame::Value {
            version,
            value: text.clone().into_bytes(),
        },
        Frame::Refused {
            message: text.clone(),
        },
        // Correlation-id envelopes: one request and one response flavour,
        // since the pipelined transport tags both directions.
        Frame::Tagged {
            id: ticket,
            inner: Box::new(Frame::PutKey {
                epoch: version,
                shard: 0,
                key: text.clone(),
                value: text.clone().into_bytes(),
            }),
        },
        Frame::Tagged {
            id: ticket ^ u64::from(u32::MAX),
            inner: Box::new(Frame::Value {
                version,
                value: text.clone().into_bytes(),
            }),
        },
        // The sharded-store surface: keyed client operations, the
        // control plane's map exchange, and the shard envelope —
        // including the canonical Tagged{Shard{plain}} nesting.
        Frame::PutKey {
            epoch: version,
            shard: (mask & 0xFFFF) as u16,
            key: text.clone(),
            value: text.clone().into_bytes(),
        },
        Frame::GetKey {
            epoch: version ^ 1,
            shard: (mask >> 16 & 0xFFFF) as u16,
            key: text.clone(),
        },
        Frame::GetShardMap,
        Frame::InstallShardMap {
            map: text.clone().into_bytes(),
        },
        Frame::ShardMapRep {
            map: text.clone().into_bytes(),
        },
        Frame::StaleShardMap { epoch: ticket },
        Frame::Shard {
            shard: (mask & 0xFFFF) as u16,
            inner: Box::new(Frame::Recover),
        },
        // The paper's file: keyed frames in a shard envelope.
        Frame::put_file(version, (mask >> 48) as u16, blob),
        Frame::get_file(ticket, (mask >> 16 & 0xFFFF) as u16),
        Frame::Tagged {
            id: ticket.rotate_left(17),
            inner: Box::new(Frame::Shard {
                shard: (mask >> 32 & 0xFFFF) as u16,
                inner: Box::new(Frame::Status),
            }),
        },
        Frame::Report { text },
    ]
}

proptest! {
    /// encode → read_frame is the identity for every frame type.
    #[test]
    fn every_frame_type_round_trips(
        ticket in any::<u64>(),
        from in 0usize..64,
        to in 0usize..64,
        version in any::<u64>(),
        mask in any::<u64>(),
        flag in any::<bool>(),
        blob in vec(any::<u8>(), 0..128),
        text in vec(any::<u8>(), 0..64),
    ) {
        let text = String::from_utf8_lossy(&text).into_owned();
        for frame in all_frames(ticket, from, to, version, mask, flag, blob, text) {
            let bytes = frame.encode();
            let mut cursor = &bytes[..];
            let decoded = read_frame(&mut cursor);
            prop_assert_eq!(decoded.ok().as_ref(), Some(&frame), "frame: {:?}", frame);
            prop_assert!(cursor.is_empty(), "decoder consumed the exact frame");
        }
    }

    /// Every strict prefix of a valid encoding errors out cleanly —
    /// the decoder neither panics nor accepts a truncated frame.
    #[test]
    fn truncations_error_without_panicking(
        ticket in any::<u64>(),
        from in 0usize..64,
        to in 0usize..64,
        version in any::<u64>(),
        mask in any::<u64>(),
        flag in any::<bool>(),
        blob in vec(any::<u8>(), 0..32),
    ) {
        let frames = all_frames(ticket, from, to, version, mask, flag, blob, "x".into());
        for frame in frames {
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                let mut cursor = &bytes[..cut];
                prop_assert!(
                    read_frame(&mut cursor).is_err(),
                    "prefix of {} bytes of {:?} decoded",
                    cut,
                    frame
                );
            }
        }
    }

    /// A hostile length prefix above the cap is rejected before any
    /// body allocation — even when the claimed length is gigabytes.
    #[test]
    fn oversized_lengths_are_rejected(excess in 1u32..1025) {
        let len = MAX_FRAME + excess;
        let mut bytes = len.to_be_bytes().to_vec();
        // A few body bytes; the decoder must refuse before wanting them.
        bytes.extend_from_slice(&[0u8; 8]);
        let err = read_frame(&mut &bytes[..]).expect_err("oversized accepted");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// A delta COMMIT whose put list claims more bytes than the body
    /// holds — up to the 4 GiB a length field can name — is a clean
    /// truncation error: the claim is checked against the bytes present
    /// before anything is copied.
    #[test]
    fn commit_delta_put_list_cannot_outgrow_its_body(
        ticket in any::<u64>(),
        base in any::<u64>(),
        puts in vec(any::<u8>(), 0..64),
        excess in 1u32..4096,
    ) {
        let frame = Frame::CommitDelta {
            ticket,
            from: SiteId::new(0),
            to: SiteId::new(1),
            state: ReplicaState { op: 2, version: base.wrapping_add(1), partition: SiteSet::first_n(3) },
            base,
            puts: puts.clone(),
        };
        let mut body = frame.encode()[4..].to_vec();
        // The put list is the last field: its u32 length sits right
        // before its bytes.
        let at = body.len() - puts.len() - 4;
        for claimed in [puts.len() as u32 + excess, u32::MAX] {
            body[at..at + 4].copy_from_slice(&claimed.to_be_bytes());
            prop_assert_eq!(Frame::decode(&body), Err(FrameError::Truncated));
        }
    }

    /// Arbitrary garbage bodies never panic the decoder, and anything
    /// that *does* decode re-encodes to the identical body (the
    /// encoding is canonical).
    #[test]
    fn garbage_bodies_decode_totally(body in vec(any::<u8>(), 0..256)) {
        match Frame::decode(&body) {
            Ok(frame) => {
                let reencoded = frame.encode();
                prop_assert_eq!(&reencoded[4..], &body[..], "non-canonical decode of {:?}", frame);
            }
            Err(
                FrameError::Truncated
                | FrameError::TrailingBytes { .. }
                | FrameError::UnknownType(_)
                | FrameError::BadSite(_)
                | FrameError::BadBool(_)
                | FrameError::BadReason(_)
                | FrameError::BadUtf8
                | FrameError::NestedTag
                | FrameError::NestedShard,
            ) => {}
            Err(FrameError::Oversized { .. }) => {
                prop_assert!(false, "Oversized is a prefix-layer error");
            }
        }
    }

    /// A correlation-id envelope wrapping another envelope is rejected
    /// as [`FrameError::NestedTag`] no matter what ids or inner frame
    /// the attacker picks — the decoder recurses exactly one level.
    #[test]
    fn nested_tag_envelopes_are_rejected(outer in any::<u64>(), inner in any::<u64>()) {
        let innermost = Frame::Status;
        let tagged_once = Frame::Tagged { id: inner, inner: Box::new(innermost) };
        // Hand-build the double envelope: the encoder refuses to nest,
        // so splice the once-tagged body behind a second tag header.
        let once = tagged_once.encode();
        let mut body = vec![0x30];
        body.extend_from_slice(&outer.to_be_bytes());
        body.extend_from_slice(&once[4..]); // skip the length prefix
        prop_assert_eq!(Frame::decode(&body), Err(FrameError::NestedTag));
    }

    /// A shard envelope wrapping another shard envelope is rejected as
    /// [`FrameError::NestedShard`] — the canonical nesting is at most
    /// `Tagged{Shard{plain}}`, and the decoder enforces it even against
    /// hand-built bytes the encoder would refuse to produce.
    #[test]
    fn nested_shard_envelopes_are_rejected(outer in any::<u16>(), inner in any::<u16>()) {
        let sharded_once = Frame::Shard { shard: inner, inner: Box::new(Frame::Status) };
        let once = sharded_once.encode();
        let mut body = vec![0x31];
        body.extend_from_slice(&outer.to_be_bytes());
        body.extend_from_slice(&once[4..]); // skip the length prefix
        prop_assert_eq!(Frame::decode(&body), Err(FrameError::NestedShard));
    }

    /// `encode_tagged(id)` — the hot-path encoder the pipelined client
    /// and server use — produces byte-identical output to wrapping in
    /// a [`Frame::Tagged`] and calling `encode`.
    #[test]
    fn encode_tagged_matches_the_envelope_encoding(
        id in any::<u64>(),
        blob in vec(any::<u8>(), 0..128),
    ) {
        let put = Frame::PutKey { epoch: id, shard: 0, key: String::new(), value: blob.clone() };
        for plain in [put, Frame::get_file(id, 0), Frame::Status] {
            let fast = plain.encode_tagged(id);
            let slow = Frame::Tagged { id, inner: Box::new(plain) }.encode();
            prop_assert_eq!(fast, slow);
        }
    }
}

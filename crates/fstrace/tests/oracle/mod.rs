//! The scalar record decoder as it stood before the batched decoder's
//! fallback and `codec::decode_from` became one function, copied
//! verbatim: the independent oracle `decode_from` and `decode_block`
//! must match record for record and error for error.

use fstrace::codec::{
    get_varint, DecodeError, MODE_RO, MODE_RW, MODE_WO, TAG_CLOSE, TAG_CREATE, TAG_EXECVE,
    TAG_OPEN, TAG_SEEK, TAG_TRUNCATE, TAG_UNLINK,
};
use fstrace::{AccessMode, FileId, OpenId, Timestamp, TraceEvent, TraceRecord, UserId};

fn mode_from_code(code: u64) -> Result<AccessMode, DecodeError> {
    match code {
        MODE_RO => Ok(AccessMode::ReadOnly),
        MODE_WO => Ok(AccessMode::WriteOnly),
        MODE_RW => Ok(AccessMode::ReadWrite),
        _ => Err(DecodeError::BadField("access mode")),
    }
}

/// Decodes one record from `buf` at `*pos`; `prev_ticks` is the previous
/// record's tick count. Returns the record and its tick count.
pub fn decode_from(
    buf: &[u8],
    pos: &mut usize,
    prev_ticks: u64,
) -> Result<(TraceRecord, u64), DecodeError> {
    let &tag = buf.get(*pos).ok_or(DecodeError::Truncated {
        offset: *pos as u64,
        records: 0,
    })?;
    *pos += 1;
    let dt = get_varint(buf, pos)?;
    // Saturate: a corrupt delta must not wrap the clock (or panic in
    // debug builds).
    let ticks = prev_ticks.saturating_add(dt);
    let time = Timestamp::from_ticks(ticks);
    let event = match tag {
        TAG_OPEN | TAG_CREATE => {
            let open_id = OpenId(get_varint(buf, pos)?);
            let file_id = FileId(get_varint(buf, pos)?);
            let user = get_varint(buf, pos)?;
            let mode = mode_from_code(get_varint(buf, pos)?)?;
            let size = get_varint(buf, pos)?;
            TraceEvent::Open {
                open_id,
                file_id,
                user_id: UserId(u32::try_from(user).map_err(|_| DecodeError::BadField("user id"))?),
                mode,
                size,
                created: tag == TAG_CREATE,
            }
        }
        TAG_CLOSE => TraceEvent::Close {
            open_id: OpenId(get_varint(buf, pos)?),
            final_pos: get_varint(buf, pos)?,
        },
        TAG_SEEK => TraceEvent::Seek {
            open_id: OpenId(get_varint(buf, pos)?),
            old_pos: get_varint(buf, pos)?,
            new_pos: get_varint(buf, pos)?,
        },
        TAG_UNLINK => {
            let file_id = FileId(get_varint(buf, pos)?);
            let user = get_varint(buf, pos)?;
            TraceEvent::Unlink {
                file_id,
                user_id: UserId(u32::try_from(user).map_err(|_| DecodeError::BadField("user id"))?),
            }
        }
        TAG_TRUNCATE => {
            let file_id = FileId(get_varint(buf, pos)?);
            let new_len = get_varint(buf, pos)?;
            let user = get_varint(buf, pos)?;
            TraceEvent::Truncate {
                file_id,
                new_len,
                user_id: UserId(u32::try_from(user).map_err(|_| DecodeError::BadField("user id"))?),
            }
        }
        TAG_EXECVE => {
            let file_id = FileId(get_varint(buf, pos)?);
            let user = get_varint(buf, pos)?;
            let size = get_varint(buf, pos)?;
            TraceEvent::Execve {
                file_id,
                user_id: UserId(u32::try_from(user).map_err(|_| DecodeError::BadField("user id"))?),
                size,
            }
        }
        other => return Err(DecodeError::BadTag(other)),
    };
    Ok((TraceRecord { time, event }, ticks))
}

//! Stream manifest: bitrate ladder and chunk geometry.

use wm_json::Value;
use wm_story::StoryGraph;

/// The ABR bitrate ladder in bits/second (2019-era Netflix VP9 ladder
/// shape).
pub const BITRATE_LADDER: [u32; 5] = [235_000, 750_000, 1_750_000, 3_000_000, 5_800_000];

/// Media chunk duration in seconds.
pub const CHUNK_SECS: u32 = 2;

/// Chunk geometry for one title.
///
/// `media_scale` divides chunk byte sizes: the *timing* of the stream
/// (chunk schedule, prefetch pattern, choice windows) is preserved while
/// the raw byte volume is reduced so full sessions simulate quickly.
/// The substitution is sound for this reproduction because the attack
/// never uses media chunk sizes — chunk records sit far outside the
/// state-JSON length bands (see DESIGN.md).
#[derive(Debug, Clone)]
pub struct Manifest {
    pub title: String,
    pub chunk_secs: u32,
    pub ladder: Vec<u32>,
    pub media_scale: u32,
}

impl Manifest {
    /// Manifest for a story graph.
    pub fn for_title(graph: &StoryGraph, media_scale: u32) -> Self {
        Manifest {
            title: graph.title().to_owned(),
            chunk_secs: CHUNK_SECS,
            ladder: BITRATE_LADDER.to_vec(),
            media_scale: media_scale.max(1),
        }
    }

    /// Number of chunks in a segment of `duration_secs`.
    pub fn chunk_count(&self, duration_secs: u32) -> u32 {
        duration_secs.div_ceil(self.chunk_secs).max(1)
    }

    /// Byte size of chunk `idx` of a segment of `duration_secs` at
    /// `bitrate` bps. The final chunk covers the remainder.
    pub fn chunk_bytes(&self, duration_secs: u32, idx: u32, bitrate: u32) -> usize {
        let count = self.chunk_count(duration_secs);
        let span = if idx + 1 == count {
            duration_secs - self.chunk_secs * (count - 1)
        } else {
            self.chunk_secs
        }
        .max(1);
        let raw = bitrate as u64 / 8 * span as u64;
        (raw / self.media_scale as u64).max(64) as usize
    }

    /// Serialize to the JSON body the player fetches at startup.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("title".into(), Value::from(self.title.clone())),
            ("chunkSeconds".into(), Value::from(self.chunk_secs as i64)),
            (
                "bitrates".into(),
                Value::array(self.ladder.iter().map(|b| Value::from(*b as i64)).collect()),
            ),
            ("mediaScale".into(), Value::from(self.media_scale as i64)),
            ("interactive".into(), Value::from(true)),
        ])
    }

    /// Parse the JSON body back (player side).
    pub fn from_json(v: &Value) -> Option<Self> {
        Some(Manifest {
            title: v.get("title")?.as_str()?.to_owned(),
            chunk_secs: v.get("chunkSeconds")?.as_i64()? as u32,
            ladder: v
                .get("bitrates")?
                .as_array()?
                .iter()
                .map(|b| b.as_i64().map(|x| x as u32))
                .collect::<Option<Vec<_>>>()?,
            media_scale: v.get("mediaScale")?.as_i64()? as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_story::bandersnatch::bandersnatch;

    #[test]
    fn chunk_geometry() {
        let g = bandersnatch();
        let m = Manifest::for_title(&g, 1);
        assert_eq!(m.chunk_count(90), 45);
        assert_eq!(m.chunk_count(91), 46);
        assert_eq!(m.chunk_count(1), 1);
        // Full chunk at 3 Mbps: 3e6/8*2 = 750 kB.
        assert_eq!(m.chunk_bytes(90, 0, 3_000_000), 750_000);
        // Final chunk of a 91 s segment covers 1 s.
        assert_eq!(m.chunk_bytes(91, 45, 3_000_000), 375_000);
    }

    #[test]
    fn media_scale_divides() {
        let g = bandersnatch();
        let m = Manifest::for_title(&g, 100);
        assert_eq!(m.chunk_bytes(90, 0, 3_000_000), 7_500);
        // Floor of 64 bytes.
        let m2 = Manifest::for_title(&g, 1_000_000);
        assert_eq!(m2.chunk_bytes(90, 0, 235_000), 64);
    }

    #[test]
    fn scale_zero_clamps_to_one() {
        let g = bandersnatch();
        let m = Manifest::for_title(&g, 0);
        assert_eq!(m.media_scale, 1);
    }

    #[test]
    fn json_roundtrip() {
        let g = bandersnatch();
        let m = Manifest::for_title(&g, 32);
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.title, m.title);
        assert_eq!(back.chunk_secs, m.chunk_secs);
        assert_eq!(back.ladder, m.ladder);
        assert_eq!(back.media_scale, m.media_scale);
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(Manifest::from_json(&Value::Null).is_none());
        assert!(
            Manifest::from_json(&Value::object(vec![("title".into(), Value::from("x"))])).is_none()
        );
    }
}

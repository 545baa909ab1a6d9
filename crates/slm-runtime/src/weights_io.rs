//! Binary weight persistence.
//!
//! A compact little-endian format for shipping model weights (f32 or the
//! int8-quantized form) between processes — the missing piece between
//! "train/quantize once" and "deploy on many edge devices". The format is
//! versioned and self-describing enough to fail loudly on mismatches.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "SLMW" | version u32 | kind u8 (0 = f32, 1 = int8) |
//! vocab u32 | hidden u32 | n_layers u32 | n_heads u32 | n_kv_heads u32 |
//! ffn_hidden u32 | payload…
//! ```

use std::io::{self, Read, Write};
use std::path::Path;

use tensor::Matrix;

use crate::config::ModelConfig;
use crate::weights::{LayerWeights, ModelWeights};

const MAGIC: &[u8; 4] = b"SLMW";
const VERSION: u32 = 1;
const KIND_F32: u8 = 0;

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn write_f32s(w: &mut impl Write, values: &[f32]) -> io::Result<()> {
    for v in values {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_f32s(r: &mut impl Read, n: usize) -> io::Result<Vec<f32>> {
    let mut bytes = vec![0u8; n * 4];
    r.read_exact(&mut bytes)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

fn write_matrix(w: &mut impl Write, m: &Matrix) -> io::Result<()> {
    write_u32(w, m.rows() as u32)?;
    write_u32(w, m.cols() as u32)?;
    write_f32s(w, m.as_slice())
}

fn read_matrix(r: &mut impl Read) -> io::Result<Matrix> {
    let rows = read_u32(r)? as usize;
    let cols = read_u32(r)? as usize;
    let data = read_f32s(r, rows * cols)?;
    Ok(Matrix::from_vec(rows, cols, data))
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Serialize config + f32 weights into a writer.
pub fn save_f32(w: &mut impl Write, cfg: &ModelConfig, weights: &ModelWeights) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    w.write_all(&[KIND_F32])?;
    for v in [
        cfg.vocab_size,
        cfg.hidden,
        cfg.n_layers,
        cfg.n_heads,
        cfg.n_kv_heads,
        cfg.ffn_hidden,
        cfg.max_seq_len,
    ] {
        write_u32(w, v as u32)?;
    }
    write_f32s(w, &[cfg.rope_theta, cfg.norm_eps])?;

    write_matrix(w, &weights.embed)?;
    for layer in &weights.layers {
        for m in [
            &layer.wq,
            &layer.wk,
            &layer.wv,
            &layer.wo,
            &layer.w_gate,
            &layer.w_up,
            &layer.w_down,
        ] {
            write_matrix(w, m)?;
        }
        write_f32s(w, &layer.attn_norm)?;
        write_f32s(w, &layer.ffn_norm)?;
    }
    write_f32s(w, &weights.final_norm)?;
    write_matrix(w, &weights.lm_head)
}

/// Deserialize config + f32 weights from a reader.
pub fn load_f32(r: &mut impl Read) -> io::Result<(ModelConfig, ModelWeights)> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not an SLMW weights file"));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(invalid(format!("unsupported weights version {version}")));
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    if kind[0] != KIND_F32 {
        return Err(invalid(format!("unsupported weight kind {}", kind[0])));
    }
    let vocab_size = read_u32(r)? as usize;
    let hidden = read_u32(r)? as usize;
    let n_layers = read_u32(r)? as usize;
    let n_heads = read_u32(r)? as usize;
    let n_kv_heads = read_u32(r)? as usize;
    let ffn_hidden = read_u32(r)? as usize;
    let max_seq_len = read_u32(r)? as usize;
    let extras = read_f32s(r, 2)?;
    let cfg = ModelConfig {
        vocab_size,
        hidden,
        n_layers,
        n_heads,
        n_kv_heads,
        ffn_hidden,
        max_seq_len,
        rope_theta: extras[0],
        norm_eps: extras[1],
        // The on-disk format stores f32 payloads (KIND_F32 checked above);
        // callers opt into int8 execution via `with_precision` after load.
        precision: crate::config::Precision::F32,
    };
    cfg.validate().map_err(invalid)?;

    let embed = read_matrix(r)?;
    let mut layers = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let wq = read_matrix(r)?;
        let wk = read_matrix(r)?;
        let wv = read_matrix(r)?;
        let wo = read_matrix(r)?;
        let w_gate = read_matrix(r)?;
        let w_up = read_matrix(r)?;
        let w_down = read_matrix(r)?;
        let attn_norm = read_f32s(r, hidden)?;
        let ffn_norm = read_f32s(r, hidden)?;
        layers.push(LayerWeights {
            wq,
            wk,
            wv,
            wo,
            w_gate,
            w_up,
            w_down,
            attn_norm,
            ffn_norm,
        });
    }
    let final_norm = read_f32s(r, hidden)?;
    let lm_head = read_matrix(r)?;
    let weights = ModelWeights {
        embed,
        layers,
        final_norm,
        lm_head,
    };
    if weights.embed.rows() != vocab_size || weights.embed.cols() != hidden {
        return Err(invalid("embedding shape does not match header"));
    }
    Ok((cfg, weights))
}

/// Save to a file path.
pub fn save_file(path: &Path, cfg: &ModelConfig, weights: &ModelWeights) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    save_f32(&mut file, cfg, weights)?;
    file.flush()
}

/// Load from a file path.
pub fn load_file(path: &Path) -> io::Result<(ModelConfig, ModelWeights)> {
    let mut file = io::BufReader::new(std::fs::File::open(path)?);
    load_f32(&mut file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{InferenceModel, TransformerLM};

    fn setup() -> (ModelConfig, ModelWeights) {
        let cfg = ModelConfig::tiny(48);
        let weights = ModelWeights::synthetic(&cfg, 9);
        (cfg, weights)
    }

    #[test]
    fn roundtrip_through_memory_is_exact() {
        let (cfg, weights) = setup();
        let mut buf = Vec::new();
        save_f32(&mut buf, &cfg, &weights).unwrap();
        let (cfg2, weights2) = load_f32(&mut buf.as_slice()).unwrap();
        assert_eq!(cfg, cfg2);
        assert_eq!(weights.embed, weights2.embed);
        assert_eq!(weights.layers[0].wq, weights2.layers[0].wq);
        assert_eq!(weights.lm_head, weights2.lm_head);
    }

    #[test]
    fn loaded_model_produces_identical_logits() {
        let (cfg, weights) = setup();
        let mut buf = Vec::new();
        save_f32(&mut buf, &cfg, &weights).unwrap();
        let (cfg2, weights2) = load_f32(&mut buf.as_slice()).unwrap();

        let a = TransformerLM::new(cfg, weights);
        let b = TransformerLM::new(cfg2, weights2);
        let mut ca = a.new_cache();
        let mut cb = b.new_cache();
        assert_eq!(
            a.prefill(&[1, 2, 3], &mut ca),
            b.prefill(&[1, 2, 3], &mut cb)
        );
    }

    #[test]
    fn file_roundtrip() {
        let (cfg, weights) = setup();
        let path = std::env::temp_dir().join(format!("slm-weights-{}.bin", std::process::id()));
        save_file(&path, &cfg, &weights).unwrap();
        let (cfg2, _) = load_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(cfg, cfg2);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = load_f32(&mut &b"NOPE0000"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_file_rejected() {
        let (cfg, weights) = setup();
        let mut buf = Vec::new();
        save_f32(&mut buf, &cfg, &weights).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load_f32(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let (cfg, weights) = setup();
        let mut buf = Vec::new();
        save_f32(&mut buf, &cfg, &weights).unwrap();
        buf[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = load_f32(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn size_matches_parameter_count() {
        let (cfg, weights) = setup();
        let mut buf = Vec::new();
        save_f32(&mut buf, &cfg, &weights).unwrap();
        // parameters * 4 bytes + headers and matrix shape prefixes
        let min = cfg.num_parameters() * 4;
        assert!(buf.len() >= min);
        assert!(
            buf.len() < min + 1024,
            "excessive overhead: {}",
            buf.len() - min
        );
    }
}

//! Forward error correction.
//!
//! Three codes, matching what a µW-class node can actually afford to
//! *encode* (all three encoders are trivial shift-register logic; the heavy
//! Viterbi decoding runs on the reader):
//!
//! * repetition-n with majority decoding;
//! * Hamming(7,4) with single-error correction per block;
//! * convolutional K=7, rate ½ (the classic `(171, 133)` octal generators)
//!   with hard- or soft-decision Viterbi decoding.

/// Code selection carried in link configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fec {
    /// No coding.
    None,
    /// Repetition code with odd factor `n`.
    Repetition(usize),
    /// Hamming(7,4).
    Hamming74,
    /// Extended Golay(24,12): corrects 3 errors per 24-bit word.
    Golay24,
    /// Convolutional K=7 R=1/2 with Viterbi decoding.
    Conv,
}

impl Fec {
    /// Code rate (information bits per channel bit).
    pub fn rate(&self) -> f64 {
        match self {
            Fec::None => 1.0,
            Fec::Repetition(n) => 1.0 / *n as f64,
            Fec::Hamming74 => 4.0 / 7.0,
            Fec::Golay24 => 0.5,
            Fec::Conv => 0.5,
        }
    }

    /// Encodes information bits into channel bits.
    pub fn encode(&self, bits: &[bool]) -> Vec<bool> {
        let _t = vab_obs::time_stage("fec.encode");
        match self {
            Fec::None => bits.to_vec(),
            Fec::Repetition(n) => repetition_encode(bits, *n),
            Fec::Hamming74 => hamming74_encode(bits),
            Fec::Golay24 => crate::golay::golay24_encode(bits),
            Fec::Conv => conv_encode(bits),
        }
    }

    /// Decodes channel bits back to information bits (hard decision).
    pub fn decode(&self, bits: &[bool]) -> Vec<bool> {
        let _t = vab_obs::time_stage("fec.decode");
        match self {
            Fec::None => bits.to_vec(),
            Fec::Repetition(n) => repetition_decode(bits, *n),
            Fec::Hamming74 => hamming74_decode(bits),
            Fec::Golay24 => crate::golay::golay24_decode(bits),
            Fec::Conv => conv_decode_hard(bits),
        }
    }

    /// Number of channel bits produced for `k` information bits.
    pub fn encoded_len(&self, k: usize) -> usize {
        match self {
            Fec::None => k,
            Fec::Repetition(n) => k * n,
            Fec::Hamming74 => k.div_ceil(4) * 7,
            Fec::Golay24 => k.div_ceil(12) * 24,
            Fec::Conv => (k + CONV_K - 1) * 2,
        }
    }
}

// --- Repetition --------------------------------------------------------

fn repetition_encode(bits: &[bool], n: usize) -> Vec<bool> {
    assert!(n >= 1 && n % 2 == 1, "repetition factor must be odd");
    let mut out = Vec::with_capacity(bits.len() * n);
    for &b in bits {
        out.extend(std::iter::repeat_n(b, n));
    }
    out
}

fn repetition_decode(bits: &[bool], n: usize) -> Vec<bool> {
    assert!(n >= 1 && n % 2 == 1, "repetition factor must be odd");
    bits.chunks(n).map(|c| c.iter().filter(|&&b| b).count() * 2 > c.len()).collect()
}

// --- Hamming(7,4) -------------------------------------------------------

/// Encodes 4-bit nibbles into 7-bit codewords `[d0 d1 d2 d3 p0 p1 p2]`.
/// Short tail nibbles are zero-padded (the framer carries the true length).
fn hamming74_encode(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bits.len().div_ceil(4) * 7);
    for chunk in bits.chunks(4) {
        let mut d = [false; 4];
        d[..chunk.len()].copy_from_slice(chunk);
        let p0 = d[0] ^ d[1] ^ d[2];
        let p1 = d[1] ^ d[2] ^ d[3];
        let p2 = d[0] ^ d[1] ^ d[3];
        out.extend_from_slice(&[d[0], d[1], d[2], d[3], p0, p1, p2]);
    }
    out
}

/// Decodes 7-bit blocks, correcting any single-bit error per block.
fn hamming74_decode(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bits.len() / 7 * 4);
    for chunk in bits.chunks(7) {
        if chunk.len() < 7 {
            break; // incomplete trailing block carries no data
        }
        let mut w = [false; 7];
        w.copy_from_slice(chunk);
        // Syndromes of the three parity equations.
        let s0 = w[4] ^ w[0] ^ w[1] ^ w[2];
        let s1 = w[5] ^ w[1] ^ w[2] ^ w[3];
        let s2 = w[6] ^ w[0] ^ w[1] ^ w[3];
        // Map the syndrome to the erroneous position. Each position has a
        // unique signature (s0, s1, s2):
        // d0:(1,0,1) d1:(1,1,1) d2:(1,1,0) d3:(0,1,1) p0:(1,0,0) p1:(0,1,0) p2:(0,0,1)
        let flip = match (s0, s1, s2) {
            (true, false, true) => Some(0),
            (true, true, true) => Some(1),
            (true, true, false) => Some(2),
            (false, true, true) => Some(3),
            (true, false, false) => Some(4),
            (false, true, false) => Some(5),
            (false, false, true) => Some(6),
            (false, false, false) => None,
        };
        if let Some(i) = flip {
            w[i] = !w[i];
        }
        out.extend_from_slice(&w[..4]);
    }
    out
}

// --- Convolutional K=7 R=1/2 with Viterbi -------------------------------

/// Constraint length.
pub const CONV_K: usize = 7;
const G0: u32 = 0o171; // 1111001
const G1: u32 = 0o133; // 1011011
const STATES: usize = 1 << (CONV_K - 1);

#[inline]
const fn parity(x: u32) -> bool {
    x.count_ones() % 2 == 1
}

/// Convolutional encoder; appends `K−1` zero tail bits to flush the
/// register, so output length is `2·(len + 6)`.
pub fn conv_encode(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity((bits.len() + CONV_K - 1) * 2);
    let mut reg: u32 = 0;
    for &b in bits.iter().chain(std::iter::repeat_n(&false, CONV_K - 1)) {
        reg = (reg >> 1) | ((b as u32) << (CONV_K - 1));
        out.push(parity(reg & G0));
        out.push(parity(reg & G1));
    }
    out
}

/// Hard-decision Viterbi: wraps the soft decoder with ±1 metrics.
pub fn conv_decode_hard(bits: &[bool]) -> Vec<bool> {
    let soft: Vec<f64> = bits.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
    conv_decode_soft(&soft)
}

/// Branch labels of the trellis, indexed by `[next state][d]`. The decoder
/// state is the encoder register shifted down by one — the last `K−1`
/// input bits, newest on top — so next state `ns` is entered with input
/// bit `ns >> (K−2)` from predecessor `((ns << 1) & (STATES−1)) | d`. That
/// step's full register is `(ns << 1) | d`, exactly as [`conv_encode`]
/// builds it; the label `2·p0 + p1` packs its two generator parities.
const BRANCH: [[usize; 2]; STATES] = {
    let mut table = [[0usize; 2]; STATES];
    let mut ns = 0;
    while ns < STATES {
        let mut d = 0;
        while d < 2 {
            let reg = ((ns << 1) | d) as u32;
            table[ns][d] = 2 * parity(reg & G0) as usize + parity(reg & G1) as usize;
            d += 1;
        }
        ns += 1;
    }
    table
};

/// Soft-decision Viterbi decoder. Input is one metric per channel bit,
/// positive meaning "probably 1" (e.g. the demodulator's soft statistic).
/// Returns the information bits (tail removed).
///
/// Path metrics live in two fixed arrays that swap each step; survivors
/// are one decision word per step (bit `ns` set when state `ns` kept its
/// odd predecessor). The add-compare-select visits the even predecessor
/// first and replaces only on a strictly larger metric.
pub fn conv_decode_soft(metrics: &[f64]) -> Vec<bool> {
    let _t = vab_obs::time_stage("fec.viterbi");
    let n_steps = metrics.len() / 2;
    if n_steps < CONV_K {
        return Vec::new();
    }
    const NEG: f64 = f64::NEG_INFINITY;
    let mut metric = [NEG; STATES];
    metric[0] = 0.0;
    let mut next = [NEG; STATES];
    let mut decisions: Vec<u64> = Vec::with_capacity(n_steps);
    for pair in metrics.chunks_exact(2) {
        let (m0, m1) = (pair[0], pair[1]);
        // Branch metric by label: `-` for a parity of 0, `+` for 1.
        let branch = [-m0 + -m1, -m0 + m1, m0 + -m1, m0 + m1];
        let mut word = 0u64;
        for (ns, (out, labels)) in next.iter_mut().zip(&BRANCH).enumerate() {
            let even = (ns << 1) & (STATES - 1);
            let mut best = NEG;
            let cand = metric[even] + branch[labels[0]];
            if cand > best {
                best = cand;
            }
            let cand = metric[even | 1] + branch[labels[1]];
            if cand > best {
                best = cand;
                word |= 1 << ns;
            }
            *out = best;
        }
        std::mem::swap(&mut metric, &mut next);
        decisions.push(word);
    }
    // Traceback from state 0 (the tail flushes the encoder to 0). It can
    // only meet a state no path reached at state 0 (nothing finite
    // survives, e.g. after a NaN metric); a clear decision bit keeps it
    // there, decoding zeros.
    let mut state = 0usize;
    let mut decoded = vec![false; n_steps];
    for (bit, &word) in decoded.iter_mut().zip(&decisions).rev() {
        *bit = state >> (CONV_K - 2) == 1;
        state = ((state << 1) & (STATES - 1)) | ((word >> state) & 1) as usize;
    }
    decoded.truncate(n_steps - (CONV_K - 1));
    decoded
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use vab_util::rng::{random_bits, seeded};

    /// The decoder before the fixed-array rewrite: a fresh metric vector
    /// per step and a survivor bit plus predecessor per state per step.
    fn conv_decode_soft_reference(metrics: &[f64]) -> Vec<bool> {
        let n_steps = metrics.len() / 2;
        if n_steps < CONV_K {
            return Vec::new();
        }
        // Trellis tables. The decoder state is the encoder register shifted
        // down by one — i.e. the last K−1 input bits. A step with input `inp`
        // reconstructs the full register `reg = state | inp << (K−1)`, emits the
        // two generator parities, and moves to `reg >> 1`, exactly mirroring
        // [`conv_encode`].
        let mut next_state = [[0usize; 2]; STATES];
        let mut outs = [[(false, false); 2]; STATES];
        for s in 0..STATES {
            for inp in 0..2 {
                let reg = (s as u32) | ((inp as u32) << (CONV_K - 1));
                outs[s][inp] = (parity(reg & G0), parity(reg & G1));
                next_state[s][inp] = (reg >> 1) as usize;
            }
        }
        const NEG: f64 = f64::NEG_INFINITY;
        let mut metric = vec![NEG; STATES];
        metric[0] = 0.0;
        // Survivor paths as packed input bits per step.
        let mut survivors: Vec<[u8; STATES]> = Vec::with_capacity(n_steps);
        let mut prev_state: Vec<[u16; STATES]> = Vec::with_capacity(n_steps);
        for step in 0..n_steps {
            let m0 = metrics[2 * step];
            let m1 = metrics[2 * step + 1];
            let mut new_metric = vec![NEG; STATES];
            let mut surv = [0u8; STATES];
            let mut prev = [0u16; STATES];
            for s in 0..STATES {
                if metric[s] == NEG {
                    continue;
                }
                for inp in 0..2 {
                    let (o0, o1) = outs[s][inp];
                    let branch = (if o0 { m0 } else { -m0 }) + (if o1 { m1 } else { -m1 });
                    let ns = next_state[s][inp];
                    let cand = metric[s] + branch;
                    if cand > new_metric[ns] {
                        new_metric[ns] = cand;
                        surv[ns] = inp as u8;
                        prev[ns] = s as u16;
                    }
                }
            }
            metric = new_metric;
            survivors.push(surv);
            prev_state.push(prev);
        }
        // Traceback from state 0 (the tail flushes the encoder to 0).
        let mut state = 0usize;
        let mut decoded = vec![false; n_steps];
        for step in (0..n_steps).rev() {
            decoded[step] = survivors[step][state] == 1;
            state = prev_state[step][state] as usize;
        }
        decoded.truncate(n_steps - (CONV_K - 1));
        decoded
    }

    #[test]
    fn repetition_roundtrip_and_correction() {
        let bits = vec![true, false, true, true, false];
        let mut coded = repetition_encode(&bits, 3);
        assert_eq!(coded.len(), 15);
        // Flip one chip per repeated group — all correctable.
        coded[0] = !coded[0];
        coded[4] = !coded[4];
        coded[14] = !coded[14];
        assert_eq!(repetition_decode(&coded, 3), bits);
    }

    #[test]
    fn hamming_roundtrip_clean() {
        let bits = random_bits(&mut seeded(41), 64);
        let coded = hamming74_encode(&bits);
        assert_eq!(coded.len(), 64 / 4 * 7);
        assert_eq!(hamming74_decode(&coded), bits);
    }

    #[test]
    fn hamming_corrects_any_single_error_per_block() {
        let bits = vec![true, false, true, true];
        let coded = hamming74_encode(&bits);
        for i in 0..7 {
            let mut c = coded.clone();
            c[i] = !c[i];
            assert_eq!(hamming74_decode(&c), bits, "failed to correct position {i}");
        }
    }

    #[test]
    fn hamming_pads_short_tail() {
        let bits = vec![true, true]; // half a nibble
        let decoded = hamming74_decode(&hamming74_encode(&bits));
        assert_eq!(&decoded[..2], &bits[..]);
        assert_eq!(decoded.len(), 4);
    }

    #[test]
    fn conv_roundtrip_clean() {
        let bits = random_bits(&mut seeded(42), 200);
        let coded = conv_encode(&bits);
        assert_eq!(coded.len(), (200 + 6) * 2);
        assert_eq!(conv_decode_hard(&coded), bits);
    }

    #[test]
    fn conv_corrects_scattered_errors() {
        let mut rng = seeded(43);
        let bits = random_bits(&mut rng, 300);
        let mut coded = conv_encode(&bits);
        // Flip ~4% of channel bits, scattered.
        let n_flips = coded.len() / 25;
        for _ in 0..n_flips {
            let i = rng.random_range(0..coded.len());
            coded[i] = !coded[i];
        }
        let decoded = conv_decode_hard(&coded);
        let errors = decoded.iter().zip(&bits).filter(|(a, b)| a != b).count();
        assert_eq!(errors, 0, "Viterbi should clean 4% scattered errors");
    }

    #[test]
    fn conv_soft_beats_hard_at_same_noise() {
        let mut rng = seeded(44);
        let trials = 40;
        let (mut hard_errs, mut soft_errs) = (0usize, 0usize);
        for _ in 0..trials {
            let bits = random_bits(&mut rng, 120);
            let coded = conv_encode(&bits);
            // AWGN on ±1 symbols at low SNR.
            let soft: Vec<f64> = coded
                .iter()
                .map(|&b| {
                    let s = if b { 1.0 } else { -1.0 };
                    s + 1.1 * vab_util::rng::gaussian(&mut rng)
                })
                .collect();
            let hard_in: Vec<bool> = soft.iter().map(|&m| m >= 0.0).collect();
            let hd = conv_decode_hard(&hard_in);
            let sd = conv_decode_soft(&soft);
            hard_errs += hd.iter().zip(&bits).filter(|(a, b)| a != b).count();
            soft_errs += sd.iter().zip(&bits).filter(|(a, b)| a != b).count();
        }
        assert!(soft_errs < hard_errs, "soft ({soft_errs}) should beat hard ({hard_errs})");
    }

    #[test]
    fn fec_enum_dispatch_consistency() {
        let bits = random_bits(&mut seeded(45), 96);
        for fec in [
            Fec::None,
            Fec::Repetition(3),
            Fec::Repetition(5),
            Fec::Hamming74,
            Fec::Golay24,
            Fec::Conv,
        ] {
            let coded = fec.encode(&bits);
            assert_eq!(coded.len(), fec.encoded_len(bits.len()), "{fec:?} length");
            let decoded = fec.decode(&coded);
            assert_eq!(&decoded[..bits.len()], &bits[..], "{fec:?} roundtrip");
            assert!(fec.rate() > 0.0 && fec.rate() <= 1.0);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn viterbi_matches_reference_bit_for_bit(
            len in 0usize..=700,
            seed in 0u64..u64::MAX,
            integer in 0u8..2,
            specials in 0usize..4,
        ) {
            let mut rng = seeded(seed);
            let mut metrics: Vec<f64> = (0..len)
                .map(|_| {
                    if integer == 1 {
                        // Small integers: many exact ties in the ACS.
                        rng.random_range(-2i32..=2) as f64
                    } else {
                        let s = if rng.random::<bool>() { 1.0 } else { -1.0 };
                        s + 0.9 * vab_util::rng::gaussian(&mut rng)
                    }
                })
                .collect();
            for _ in 0..specials.min(len) {
                let i = rng.random_range(0..len);
                metrics[i] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.random_range(0..3usize)];
            }
            proptest::prop_assert_eq!(
                conv_decode_soft(&metrics),
                conv_decode_soft_reference(&metrics),
                "len {} seed {} integer {} specials {}", len, seed, integer, specials
            );
        }
    }

    #[test]
    fn conv_empty_and_tiny_inputs() {
        assert!(conv_decode_hard(&[]).is_empty());
        let one = conv_encode(&[true]);
        assert_eq!(conv_decode_hard(&one), vec![true]);
    }
}

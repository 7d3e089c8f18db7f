//! The exhaustive decode sweep: all 2^32 instruction words go through
//! the decoder without a panic, every word that decodes re-encodes to an
//! instruction that decodes back to itself, and the number of decodable
//! words is pinned. It takes about ten seconds in release on two host
//! threads, so the default suite skips it; run it with
//! `cargo test --release -p izhi_isa -- --ignored`.

use std::thread;

use izhi_isa::{decode, encode};

/// Decodable words among all 2^32.
const DECODABLE_WORDS: u64 = 248_285_184;

#[test]
#[ignore = "exhaustive over 2^32 words; run in release with --ignored"]
fn every_word_decodes_or_is_refused_and_decodable_words_round_trip() {
    let threads = thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let words = 1u64 << 32;
    let per_thread = words.div_ceil(threads);
    let decodable: u64 = thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut count = 0;
                    for w in t * per_thread..((t + 1) * per_thread).min(words) {
                        if let Ok(inst) = decode(w as u32) {
                            assert_eq!(decode(encode(inst)), Ok(inst), "word {w:#010x}");
                            count += 1;
                        }
                    }
                    count
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("a sweep thread panicked"))
            .sum()
    });
    assert_eq!(decodable, DECODABLE_WORDS);
}

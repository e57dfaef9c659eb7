//! Host-speed calibration.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed moves in
//! phases that last from seconds to minutes: the same acloud run, repeated
//! within a minute, measured an op p50 of 144 ms and then 93 ms, with steal
//! time near 2%. No run length averages that out, so two sets of runs of the
//! same code can disagree by more than any useful regression bound.
//!
//! So the timed thread also runs a fixed *calibration slice* about every
//! [`EVERY`], between operations: work of the benchmark's own that never
//! calls the program — hash-map and B-tree churn with small allocations, an
//! N-queens backtracking count, a dependent integer chain, and rendering and
//! parsing a small JSON document, the kinds of work the engine and the
//! solver do. A workload whose operations are loopback round trips between
//! threads on one CPU uses an echo slice instead ([`Calib::with_echo`]).
//! Every time the benchmark records is kept raw (ms) and calibrated
//! (`ref_ms`): its duration times the slice's nominal duration ([`REF_MS`],
//! or [`ECHO_REF_MS`] for the echo slice) over the median of the last
//! [`WINDOW`] slice durations. One `ref_ms` is thus a millisecond on a
//! host where a slice takes its nominal time, about its time on the 2-vCPU
//! Xeon VM the benchmark was tuned on. Throughput divides by a window
//! measured on a calibrated clock that advances between ticks at the scale
//! of the moment ([`Calib::ref_elapsed_s`]). A slower host stretches the
//! operation and the slices together and the ratio holds; a slower program
//! stretches only the operation. The slices track the host only in part, so
//! calibrated times still move with it, by less (`README.md` gives the
//! measurements).

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;

/// The compute slice's nominal duration in ms.
pub const REF_MS: f64 = 1.0;
/// The echo slice's nominal duration in ms (see [`Calib::with_echo`]).
pub const ECHO_REF_MS: f64 = 0.5;
/// How often [`Calib::tick`] runs a slice.
pub const EVERY: Duration = Duration::from_millis(100);
/// Recent slices whose median scales a sample; also the slices run at the
/// first tick, so the first samples have a scale.
const WINDOW: usize = 9;
/// Map operations of one slice.
const MAP_STEPS: u64 = 1_500;
/// Board size of the slice's N-queens count.
const QUEENS: u32 = 8;
/// Steps of the slice's integer chain.
const CHAIN_STEPS: u64 = 100_000;
/// Records of the document the slice renders and parses.
const JSON_ITEMS: u64 = 50;
/// Round trips of the echo slice.
const ECHO_TRIPS: usize = 40;
/// Bytes per echo round trip, each way.
const ECHO_FRAME: usize = 64;

/// Hash-map and B-tree churn with a small allocation per step.
fn maps(steps: u64) -> u64 {
    let mut hash: HashMap<u64, Vec<u64>, BuildHasherDefault<std::hash::DefaultHasher>> =
        HashMap::default();
    let mut tree = BTreeMap::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        hash.insert(x % 1024, vec![i; 4]);
        tree.insert(x % 2048, i);
        if let Some(v) = hash.get(&(i % 1024)) {
            x = x.wrapping_add(v[0]);
        }
        if let Some((_, v)) = tree.range(x % 2048..).next() {
            x ^= *v;
        }
    }
    x
}

/// Solutions of the N-queens problem, by backtracking over bit sets.
fn queens(n: u32) -> u64 {
    fn place(full: u32, cols: u32, left: u32, right: u32) -> u64 {
        if cols == full {
            return 1;
        }
        let mut total = 0;
        let mut free = !(cols | left | right) & full;
        while free != 0 {
            let bit = free & free.wrapping_neg();
            free ^= bit;
            total += place(full, cols | bit, (left | bit) << 1, (right | bit) >> 1);
        }
        total
    }
    place((1 << n) - 1, 0, 0, 0)
}

/// A chain of dependent multiplies, rotates and adds.
fn chain(steps: u64) -> u64 {
    let (mut a, mut b, mut c) = (1u64, 2u64, 3u64);
    for i in 0..steps {
        a = a.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i);
        b = b.rotate_left(7) ^ a;
        c = c.wrapping_add(b >> 3);
    }
    a ^ b ^ c
}

/// Render a document of `items` records (strings, floats, nested arrays)
/// with the benchmark's JSON writer and parse it back.
fn json(items: u64) -> u64 {
    let doc = Json::Arr(
        (0..items)
            .map(|i| {
                Json::obj([
                    ("name", Json::str(format!("item-{i}"))),
                    ("value", Json::Num(i as f64 * 1.37)),
                    (
                        "tags",
                        Json::Arr(vec![
                            Json::str("a"),
                            Json::Num(i as f64),
                            Json::Bool(i % 2 == 0),
                        ]),
                    ),
                ])
            })
            .collect(),
    );
    let text = doc.render();
    let back = Json::parse(&text).expect("the slice's document parses");
    (text.len() + back.render().len()) as u64
}

/// One slice of fixed work; returns a value that depends on all of it.
fn slice() -> u64 {
    maps(black_box(MAP_STEPS))
        ^ queens(black_box(QUEENS))
        ^ chain(black_box(CHAIN_STEPS))
        ^ json(black_box(JSON_ITEMS))
}

/// A loopback TCP echo served by a thread of its own: the kernel's socket
/// path and a thread hand-off each way, as a request to a server on the
/// same CPU pays them.
#[derive(Debug)]
struct Echo {
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        let (mut peer, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        peer.set_nodelay(true)?;
        let thread = std::thread::spawn(move || {
            let mut frame = [0u8; ECHO_FRAME];
            while peer.read_exact(&mut frame).is_ok() && peer.write_all(&frame).is_ok() {}
        });
        Ok(Echo {
            stream,
            thread: Some(thread),
        })
    }

    fn round_trips(&mut self) {
        let mut frame = [7u8; ECHO_FRAME];
        for _ in 0..ECHO_TRIPS {
            self.stream.write_all(&frame).expect("echo write");
            self.stream.read_exact(&mut frame).expect("echo read");
        }
    }
}

impl Drop for Echo {
    /// Close the connection, so the echo thread reads end of file, and wait
    /// for it.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The calibrator of one timed thread. It runs nothing until its first
/// [`Calib::tick`], so untimed code can own one for free.
#[derive(Debug, Default)]
pub struct Calib {
    /// Every slice's duration in ms, in order.
    slices: Vec<f64>,
    last: Option<Instant>,
    spent: Duration,
    /// Calibrated seconds accrued up to `mark`, the end of the last tick.
    ref_s: f64,
    mark: Option<Instant>,
    echo: Option<Echo>,
}

impl Calib {
    /// A calibrator whose slice is [`ECHO_TRIPS`] round trips over a
    /// loopback TCP echo, for a workload whose operations are such round
    /// trips: there the host's phases move the kernel's socket path and the
    /// thread hand-offs more than they move the compute slice. The echo
    /// thread inherits the calling thread's CPU affinity.
    pub fn with_echo() -> std::io::Result<Calib> {
        Ok(Calib {
            echo: Some(Echo::start()?),
            ..Calib::default()
        })
    }

    /// The slice's nominal duration in ms: the scale of `ref_ms`.
    fn nominal_ms(&self) -> f64 {
        if self.echo.is_some() {
            ECHO_REF_MS
        } else {
            REF_MS
        }
    }

    fn run_slice(&mut self) {
        let start = Instant::now();
        match &mut self.echo {
            Some(echo) => echo.round_trips(),
            None => {
                black_box(slice());
            }
        }
        let took = start.elapsed();
        self.slices.push(crate::ms(took));
        self.spent += took;
        self.last = Some(Instant::now());
    }

    /// Run a slice when [`EVERY`] has passed since the last one ([`WINDOW`]
    /// slices at the first call). Call it between timed operations, never
    /// inside one. The calibrated clock advances by the time since the
    /// previous tick at the scale of that moment; slices stay out of it.
    pub fn tick(&mut self) {
        if let Some(mark) = self.mark {
            self.ref_s += mark.elapsed().as_secs_f64() * self.scale();
        }
        match self.last {
            None => (0..WINDOW).for_each(|_| self.run_slice()),
            Some(last) if last.elapsed() >= EVERY => self.run_slice(),
            Some(_) => {}
        }
        self.mark = Some(Instant::now());
    }

    /// The calibrated clock: seconds since the first tick, each at the scale
    /// of its moment, slices and [`Calib::exclude`]d time left out.
    pub fn ref_elapsed_s(&self) -> f64 {
        self.ref_s
            + self
                .mark
                .map_or(0.0, |m| m.elapsed().as_secs_f64() * self.scale())
    }

    /// Leave `d` of wall time since the last tick out of the calibrated
    /// clock.
    pub fn exclude(&mut self, d: Duration) {
        self.ref_s -= d.as_secs_f64() * self.scale();
    }

    /// `ref_ms` per ms now: the nominal slice over the median of the recent
    /// slices (1 before the first tick).
    pub fn scale(&self) -> f64 {
        let recent = &self.slices[self.slices.len().saturating_sub(WINDOW)..];
        if recent.is_empty() {
            1.0
        } else {
            self.nominal_ms() / crate::stats::median(recent)
        }
    }

    /// Median slice duration in ms (0 before the first tick).
    pub fn median_ms(&self) -> f64 {
        if self.slices.is_empty() {
            0.0
        } else {
            crate::stats::median(&self.slices)
        }
    }

    /// Time spent in slices so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Slices run so far.
    pub fn slices(&self) -> usize {
        self.slices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_do_fixed_work() {
        assert_eq!(queens(8), 92);
        assert_eq!(maps(300), maps(300));
        assert_eq!(json(3), json(3));
        assert_eq!(slice(), slice());
    }

    #[test]
    fn scale_follows_the_recent_slices() {
        let mut c = Calib::default();
        assert_eq!(c.scale(), 1.0);
        c.slices = vec![4.0; WINDOW];
        c.slices.extend([2.0; WINDOW]);
        assert_eq!(c.scale(), REF_MS / 2.0);
    }

    #[test]
    fn echo_slices_round_trip_and_stop() {
        let mut c = Calib::with_echo().unwrap();
        c.tick();
        assert_eq!(c.slices(), WINDOW);
        assert_eq!(c.nominal_ms(), ECHO_REF_MS);
        drop(c);
    }

    #[test]
    fn first_tick_fills_the_window() {
        let mut c = Calib::default();
        assert_eq!(c.ref_elapsed_s(), 0.0);
        c.tick();
        assert_eq!(c.slices(), WINDOW);
        c.tick();
        assert_eq!(c.slices(), WINDOW, "no slice before EVERY has passed");
    }

    #[test]
    fn calibrated_clock_scales_and_excludes() {
        let mut c = Calib {
            slices: vec![REF_MS / 2.0; WINDOW],
            last: Some(Instant::now()),
            mark: Some(Instant::now() - Duration::from_secs(3)),
            ..Calib::default()
        };
        c.tick();
        assert!((c.ref_s - 6.0).abs() < 0.05, "3 s at scale 2: {}", c.ref_s);
        c.exclude(Duration::from_secs(1));
        assert!((c.ref_s - 4.0).abs() < 0.05, "{}", c.ref_s);
    }
}

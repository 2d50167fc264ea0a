//! End-to-end tests of `gompressod`: the network fault matrix, session
//! isolation, admission-control shedding, and graceful drain.
//!
//! The server runs in-process on an ephemeral port; "victim" clients
//! speak the wire protocol by hand to inject each fault shape, while
//! healthy clients run real jobs concurrently and must come out
//! byte-identical to the library path.

use gompresso_core::{CompressorConfig, FaultPlan, FaultWriter, StreamCompressor};
use gompresso_service::protocol::{read_frame, write_frame, CompressParams, ErrCode, FrameKind};
use gompresso_service::{Client, ClientError, DrainReport, Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Compressible but non-trivial test data, distinct per seed.
fn corpus(seed: u64, len: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(len + 128);
    let mut i = seed;
    while data.len() < len {
        data.extend_from_slice(
            format!(
                "<row id=\"{i}\" seed=\"{seed}\">the quick brown fox jumps over entry {}</row>\n",
                i % 89
            )
            .as_bytes(),
        );
        i += 1;
    }
    data.truncate(len);
    data
}

/// The job configuration every test uses: Bit + DE, 32 KiB blocks.
fn wire_params() -> CompressParams {
    CompressParams { mode: 0, de: true, block_size: 32 * 1024 }
}

fn library_config() -> CompressorConfig {
    let mut c = CompressorConfig::bit_de();
    c.block_size = 32 * 1024;
    c
}

/// The container the library path produces for `data` — the byte-identity
/// reference for everything the daemon compresses.
fn library_container(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    StreamCompressor::new(library_config()).unwrap().compress(data, &mut out).unwrap();
    out
}

fn start_server(config: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<DrainReport>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral");
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run().expect("accept loop"));
    (handle, join)
}

fn connect_client(handle: &ServerHandle) -> Client {
    Client::connect(&handle.addr().to_string(), Some(Duration::from_secs(20))).expect("connect")
}

/// Raw connection for hand-rolled protocol exchanges (the fault victims).
fn raw_connect(handle: &ServerHandle) -> TcpStream {
    let s = TcpStream::connect(handle.addr()).expect("raw connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(20))).unwrap();
    s
}

/// Sends a compress request and consumes the `Go`.
fn raw_start_compress(stream: &mut TcpStream) {
    write_frame(stream, FrameKind::ReqCompress, &wire_params().encode()).unwrap();
    let (kind, _) = read_frame(stream).unwrap();
    assert_eq!(kind, FrameKind::Go, "victim job must be admitted before the fault fires");
}

/// Reads response frames until `Err`, asserting no `Ok` arrives first;
/// returns the error code.
fn raw_expect_err(stream: &mut TcpStream) -> ErrCode {
    loop {
        let (kind, payload) = read_frame(stream).expect("server must answer with a frame, not a dead socket");
        match kind {
            FrameKind::Data => continue,
            FrameKind::Err => return ErrCode::from_u8(payload[0]),
            other => panic!("expected Err, got {other:?}"),
        }
    }
}

/// 16 blocks of 32 KiB that exercise adaptive planning: blocks 0 and 2
/// open with 8 KiB of noise and continue with one repeated sentence; the
/// other 14 are xorshift64 bytes mod 160, which probe at about 7.3
/// bits/byte with sparse matches.
fn borderline() -> Vec<u8> {
    let block_size = 32 * 1024;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x >> 24
    };
    let sentence = b"a block planned from its own bytes compresses the same everywhere. ";
    let mut data = Vec::with_capacity(16 * block_size);
    for block in 0..16 {
        if block == 0 || block == 2 {
            data.extend((0..8 * 1024).map(|_| next() as u8));
            data.extend(sentence.iter().copied().cycle().take(block_size - 8 * 1024));
        } else {
            data.extend((0..block_size).map(|_| (next() % 160) as u8));
        }
    }
    data
}

#[test]
fn wire_roundtrip_matches_library_and_counts_jobs() {
    let (handle, join) = start_server(ServerConfig::default());
    let mut client = connect_client(&handle);

    // A Bit + DE job, then an `auto` job (wire mode 2), whose per-block
    // plans must not depend on the daemon's worker count.
    let auto = CompressorConfig { block_size: 32 * 1024, ..CompressorConfig::auto() };
    let auto_params = CompressParams { mode: 2, de: false, block_size: 32 * 1024 };
    let jobs = [(corpus(1, 150_000), wire_params(), library_config()), (borderline(), auto_params, auto)];
    for (input, params, config) in &jobs {
        let mut reference = Vec::new();
        StreamCompressor::new(config.clone()).unwrap().compress(input.as_slice(), &mut reference).unwrap();
        let mut compressed = Vec::new();
        let summary = client.compress(*params, input.as_slice(), &mut compressed).unwrap();
        assert_eq!(compressed, reference, "{params:?}: daemon container must equal the library path's");
        assert_eq!(summary.uncompressed, input.len() as u64);
        assert_eq!(summary.compressed, reference.len() as u64);

        let mut restored = Vec::new();
        let summary = client.decompress(compressed.as_slice(), &mut restored).unwrap();
        assert_eq!(&restored, input);
        assert_eq!(summary.uncompressed, input.len() as u64);

        let summary = client.verify(compressed.as_slice()).unwrap();
        assert_eq!(summary.blocks, (input.len() as u64).div_ceil(32 * 1024));
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_compress, 2);
    assert_eq!(stats.jobs_decompress, 2);
    assert_eq!(stats.jobs_verify, 2);
    assert_eq!(stats.sessions_active, 1, "only this client's session is live");
    assert_eq!(stats.panics_caught, 0);
    assert!(stats.bytes_in >= jobs.iter().map(|(input, ..)| input.len() as u64).sum::<u64>());

    drop(client);
    handle.shutdown();
    let report = join.join().unwrap();
    assert!(report.clean, "drain after a quiet roundtrip must be clean: {report:?}");
}

#[test]
fn fault_matrix_isolates_victims_and_preserves_healthy_sessions() {
    let config = ServerConfig {
        max_sessions: 16,
        io_timeout: Duration::from_secs(2),
        idle_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let (handle, join) = start_server(config);

    // A container with one payload byte flipped: structurally parseable
    // framing, corrupt content.
    let victim_data = corpus(99, 100_000);
    let mut corrupt_container = library_container(&victim_data);
    let mid = corrupt_container.len() / 2;
    corrupt_container[mid] ^= 0x40;

    std::thread::scope(|scope| {
        // Four healthy sessions running real jobs throughout the faults.
        for seed in 0..4u64 {
            let handle = &handle;
            scope.spawn(move || {
                let data = corpus(seed, 120_000);
                let reference = library_container(&data);
                let mut client = connect_client(handle);
                let mut compressed = Vec::new();
                client.compress(wire_params(), data.as_slice(), &mut compressed).unwrap();
                assert_eq!(compressed, reference, "healthy session {seed} diverged from the library path");
                let mut restored = Vec::new();
                client.decompress(compressed.as_slice(), &mut restored).unwrap();
                assert_eq!(restored, data, "healthy session {seed} round-trip");
            });
        }

        // Victim: mid-stream disconnect. The session dies with the socket;
        // nobody else notices.
        let disconnect_handle = &handle;
        scope.spawn(move || {
            let mut s = raw_connect(disconnect_handle);
            raw_start_compress(&mut s);
            write_frame(&mut s, FrameKind::Data, &corpus(7, 4096)).unwrap();
            drop(s);
        });

        // Victim: unknown frame kind — a clean Protocol error.
        let garbage_handle = &handle;
        scope.spawn(move || {
            let mut s = raw_connect(garbage_handle);
            s.write_all(&[0x7F, 0, 0, 0, 0]).unwrap();
            let (kind, payload) = read_frame(&mut s).unwrap();
            assert_eq!(kind, FrameKind::Err);
            assert_eq!(ErrCode::from_u8(payload[0]), ErrCode::Protocol);
        });

        // Victim: hostile oversized frame declaration (4 GiB Data frame).
        let hostile_handle = &handle;
        scope.spawn(move || {
            let mut s = raw_connect(hostile_handle);
            raw_start_compress(&mut s);
            s.write_all(&[FrameKind::Data as u8, 0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
            assert_eq!(raw_expect_err(&mut s), ErrCode::Protocol);
        });

        // Victim: stall past the read deadline mid-job.
        let stall_handle = &handle;
        scope.spawn(move || {
            let mut s = raw_connect(stall_handle);
            raw_start_compress(&mut s);
            write_frame(&mut s, FrameKind::Data, &corpus(11, 1024)).unwrap();
            std::thread::sleep(Duration::from_millis(3200));
            assert_eq!(raw_expect_err(&mut s), ErrCode::Timeout);
        });

        // Victim: corrupt container content through a verify job — the
        // codec flags it, the session answers Corrupt.
        let corrupt_handle = &handle;
        let corrupt_container = &corrupt_container;
        scope.spawn(move || {
            let mut client = connect_client(corrupt_handle);
            let err = client.verify(corrupt_container.as_slice()).unwrap_err();
            assert!(err.is_corruption(), "corrupt container must answer Corrupt, got {err}");
        });

        // Not-quite-a-victim: a client whose socket writes land in 3-byte
        // bursts (FaultWriter over the TcpStream). Short writes are a
        // transport shape, not an error — the job must succeed.
        let burst_handle = &handle;
        scope.spawn(move || {
            let data = corpus(23, 60_000);
            let reference = library_container(&data);
            let read_half = raw_connect(burst_handle);
            let write_half = read_half.try_clone().unwrap();
            let mut w = FaultWriter::new(write_half, FaultPlan::clean().short_writes(3));
            write_frame(&mut w, FrameKind::ReqCompress, &wire_params().encode()).unwrap();
            let mut r = std::io::BufReader::new(read_half);
            let (kind, _) = read_frame(&mut r).unwrap();
            assert_eq!(kind, FrameKind::Go);
            for chunk in data.chunks(8 * 1024) {
                write_frame(&mut w, FrameKind::Data, chunk).unwrap();
            }
            write_frame(&mut w, FrameKind::End, &[]).unwrap();
            w.flush().unwrap();
            let mut compressed = Vec::new();
            loop {
                let (kind, payload) = read_frame(&mut r).unwrap();
                match kind {
                    FrameKind::Data => compressed.extend_from_slice(&payload),
                    FrameKind::Ok => break,
                    other => panic!("short-write job failed with {other:?}: {payload:?}"),
                }
            }
            assert_eq!(compressed, reference, "short-write transport must not change the bytes");
        });
    });

    // The ledger after the storm: every slot came back, nothing panicked,
    // and each fault was counted where it belongs.
    let mut client = connect_client(&handle);
    let stats = client.stats().unwrap();
    assert_eq!(stats.sessions_active, 1, "only the stats session is live; no slot leaked");
    assert_eq!(stats.sessions_accepted, stats.sessions_completed + 1, "accepted = completed + live");
    assert_eq!(stats.panics_caught, 0, "no fault may reach a panic");
    assert!(stats.protocol_errors >= 2, "unknown-kind and oversized-frame victims: {stats:?}");
    assert!(stats.timeouts >= 1, "stall victim must time out: {stats:?}");
    assert!(stats.io_errors >= 1, "disconnect victim is a transport death: {stats:?}");
    assert!(stats.corruptions >= 1, "corrupt-container victim: {stats:?}");
    assert_eq!(stats.jobs_compress, 5, "four healthy + one short-write compress job");

    drop(client);
    handle.shutdown();
    let report = join.join().unwrap();
    assert!(report.clean, "the fault matrix must not prevent a clean drain: {report:?}");
}

#[test]
fn overload_is_shed_with_busy_and_retries_succeed() {
    // One memory permit in total: max_sessions birds, one job at a time.
    let config = ServerConfig {
        max_sessions: 6,
        mem_budget: 256 * 1024,
        io_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let (handle, join) = start_server(config);

    // Hold the only permit: admitted job, data not yet finished.
    let mut holder = raw_connect(&handle);
    raw_start_compress(&mut holder);
    write_frame(&mut holder, FrameKind::Data, &corpus(3, 2048)).unwrap();

    // A second job is shed with a backoff hint — and its connection
    // survives the shed.
    let data = corpus(5, 80_000);
    let mut client = connect_client(&handle);
    let err = client.compress(wire_params(), data.as_slice(), &mut Vec::new()).unwrap_err();
    let ClientError::Busy { backoff_ms } = err else { panic!("expected Busy, got {err}") };
    assert!(backoff_ms > 0);

    // Release the permit by finishing the holder's job.
    write_frame(&mut holder, FrameKind::End, &[]).unwrap();
    loop {
        let (kind, _) = read_frame(&mut holder).unwrap();
        match kind {
            FrameKind::Data => continue,
            FrameKind::Ok => break,
            other => panic!("holder job failed with {other:?}"),
        }
    }

    // The same connection retries after the hint and succeeds.
    std::thread::sleep(Duration::from_millis(u64::from(backoff_ms)));
    let reference = library_container(&data);
    let mut compressed = Vec::new();
    client.compress(wire_params(), data.as_slice(), &mut compressed).unwrap();
    assert_eq!(compressed, reference, "a shed-then-retried job must be byte-identical");

    let stats = client.stats().unwrap();
    assert!(stats.sheds >= 1, "the overload must be visible in the counters: {stats:?}");
    assert_eq!(stats.panics_caught, 0);

    drop(client);
    drop(holder);
    handle.shutdown();
    assert!(join.join().unwrap().clean);
}

#[test]
fn connection_cap_sheds_at_accept_and_retry_reconnects() {
    let config = ServerConfig { max_sessions: 1, ..ServerConfig::default() };
    let (handle, join) = start_server(config);
    let addr = handle.addr().to_string();

    // Occupy the only slot with an idle session.
    let mut occupant = connect_client(&handle);
    occupant.stats().unwrap();

    // The next connection is told Busy straight from the accept loop.
    let mut shed = connect_client(&handle);
    let err = shed.stats().unwrap_err();
    assert!(matches!(err, ClientError::Busy { .. }), "expected accept-shed Busy, got {err}");
    drop(shed);

    // Freeing the slot lets a retry (fresh connection) through.
    drop(occupant);
    let data = corpus(17, 50_000);
    let summary = gompresso_service::run_with_retry(&addr, Some(Duration::from_secs(10)), 20, |client| {
        client.compress(wire_params(), data.as_slice(), &mut Vec::new())
    })
    .unwrap();
    assert_eq!(summary.uncompressed, data.len() as u64);

    handle.shutdown();
    assert!(join.join().unwrap().clean);
}

#[test]
fn graceful_drain_finishes_inflight_work_and_refuses_new_connections() {
    let (handle, join) = start_server(ServerConfig::default());

    // An in-flight job: admitted, half the data sent.
    let data = corpus(42, 90_000);
    let reference = library_container(&data);
    let mut inflight = raw_connect(&handle);
    raw_start_compress(&mut inflight);
    write_frame(&mut inflight, FrameKind::Data, &data[..40_000]).unwrap();

    // Drain via the wire command.
    let mut admin = connect_client(&handle);
    admin.shutdown().unwrap();
    drop(admin);

    // New connections are refused while draining: either the connect
    // itself fails or the unserved socket dies without a response.
    std::thread::sleep(Duration::from_millis(100));
    let refused = match Client::connect(&handle.addr().to_string(), Some(Duration::from_secs(2))) {
        Err(_) => true,
        Ok(mut c) => c.stats().is_err(),
    };
    assert!(refused, "a drain must not serve new connections");

    // The in-flight session finishes its job normally.
    write_frame(&mut inflight, FrameKind::Data, &data[40_000..]).unwrap();
    write_frame(&mut inflight, FrameKind::End, &[]).unwrap();
    let mut compressed = Vec::new();
    loop {
        let (kind, payload) = read_frame(&mut inflight).unwrap();
        match kind {
            FrameKind::Data => compressed.extend_from_slice(&payload),
            FrameKind::Ok => break,
            other => panic!("in-flight job failed during drain: {other:?}"),
        }
    }
    assert_eq!(compressed, reference, "work admitted before the drain must finish correctly");
    drop(inflight);

    let report = join.join().unwrap();
    assert!(report.clean, "all sessions ended inside the deadline: {report:?}");
    assert_eq!(report.forced_sessions, 0);
}

#[test]
fn drain_deadline_forces_stuck_sessions() {
    let config = ServerConfig {
        drain_timeout: Duration::from_millis(300),
        // Long deadlines: the stuck session would outlive the drain many
        // times over if the deadline did not force it.
        io_timeout: Duration::from_secs(60),
        idle_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    };
    let (handle, join) = start_server(config);

    // A session parked mid-job that never sends another byte.
    let mut stuck = raw_connect(&handle);
    raw_start_compress(&mut stuck);

    handle.shutdown();
    let report = join.join().unwrap();
    assert!(!report.clean, "the stuck session cannot drain cleanly");
    assert_eq!(report.forced_sessions, 1);
    // The forced socket is dead from the client's side too.
    let mut probe = [0u8; 1];
    match stuck.read(&mut probe) {
        Ok(0) | Err(_) => {}
        Ok(_) => panic!("forced session still delivered bytes"),
    }
}

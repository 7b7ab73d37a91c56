//! Runs the `serve` binary itself: its flags parse, it prints the address
//! it bound, answers over the wire, and exits 0 after `shutdown`; a retired
//! flag makes it exit 2 with the usage line.

use service::{Client, Job, JobSpec};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// The daemon process; killed if the test fails before it exits.
struct Daemon(Option<Child>);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn serve_binary_answers_and_exits_cleanly() {
    let store_dir =
        std::env::temp_dir().join(format!("bugassist-serve-test-{}", std::process::id()));
    let mut daemon = Daemon(Some(
        Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--addr", "127.0.0.1:0", "--store-dir"])
            .arg(&store_dir)
            .arg("--no-restore")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve starts"),
    ));
    let child = daemon.0.as_mut().expect("running");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("reads the banner");
    let addr = banner
        .trim_end()
        .split("listening on ")
        .nth(1)
        .unwrap_or_else(|| panic!("no address in {banner:?}"));

    let mut client = Client::connect(addr).expect("connects");
    let job = Job::new(
        "int main(int x) {\nint y = x + 2;\nint z = y * 2;\nreturn z;\n}",
        "main",
        JobSpec::ReturnEquals(0),
        vec![vec![3]],
    );
    let cold = client.localize(job.clone()).expect("localizes");
    assert_eq!(cold.tier, "built");
    let mut shifted = job;
    shifted.program = format!("\n{}", shifted.program);
    let revised = client.revise(shifted, cold.key).expect("revises");
    assert_eq!(revised.delta, "line_shift");
    assert!(revised.reused && !revised.solved, "{revised:?}");
    client.shutdown().expect("shuts down");

    let status = daemon.0.take().expect("running").wait().expect("exits");
    let _ = std::fs::remove_dir_all(&store_dir);
    assert!(status.success(), "serve exited with {status}");
}

/// A retired flag is refused at startup with the usage line, so a script
/// that still passes it fails loudly instead of running a different daemon.
#[test]
fn serve_refuses_the_retired_cache_shards_flag() {
    let output = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0", "--cache-shards", "8"])
        .stdin(Stdio::null())
        .output()
        .expect("serve runs");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    assert!(output.stdout.is_empty(), "it never started: {output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.starts_with("usage: serve "), "{stderr}");
}

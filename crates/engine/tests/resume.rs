//! Checkpoint/resume integration: the write-ahead journal plus
//! `run_batch_resumable`, including the simulated-SIGKILL path with a
//! torn final record.

use std::sync::Mutex;

use rmrls_engine::{
    journaled_record_holds, read_journal, run_batch_resumable, suite_admissions, BatchOptions,
    JournalHeader, JournalWriter, ShutdownHandles,
};

fn scratch(name: &str) -> String {
    let dir = std::env::temp_dir().join("rmrls-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

#[test]
fn journaled_batch_records_every_job() {
    let jobs = suite_admissions("examples").unwrap();
    let opts = BatchOptions::default();
    let header = JournalHeader::new(&jobs, &opts);
    let path = scratch("full.jsonl");
    let writer = Mutex::new(JournalWriter::create(&path, &header).unwrap());
    let run = run_batch_resumable(&jobs, &opts, &ShutdownHandles::new(), Some(&writer), None);
    drop(writer);
    assert_eq!(run.counters.jobs_completed, 8);
    assert_eq!(run.counters.journal_append_errors, 0);
    let data = read_journal(&path).unwrap();
    assert_eq!(data.header, header);
    assert!(!data.torn_tail);
    assert_eq!(data.completed.len(), 8, "one journal record per job");
    for i in 0..8 {
        assert_eq!(data.completed[&i].status, "solved");
    }
}

#[test]
fn resume_after_simulated_sigkill_reruns_only_the_remainder() {
    let jobs = suite_admissions("examples").unwrap();
    let opts = BatchOptions::default();
    let header = JournalHeader::new(&jobs, &opts);

    // Reference: an uninterrupted journaled run.
    let full_path = scratch("reference.jsonl");
    let writer = Mutex::new(JournalWriter::create(&full_path, &header).unwrap());
    let reference = run_batch_resumable(&jobs, &opts, &ShutdownHandles::new(), Some(&writer), None);
    drop(writer);

    // Simulate a SIGKILL mid-append: keep the header and the first
    // three records, then half of the fourth record's bytes.
    let text = std::fs::read_to_string(&full_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + 8, "header plus one record per job");
    let mut torn = lines[..4].join("\n");
    torn.push('\n');
    torn.push_str(&lines[4][..lines[4].len() / 2]);
    let partial_path = scratch("partial.jsonl");
    std::fs::write(&partial_path, &torn).unwrap();

    // Recover: exactly the three intact records come back.
    let data = read_journal(&partial_path).unwrap();
    assert_eq!(data.header, header, "hashes survive the crash");
    assert!(data.torn_tail, "the half-written record is detected");
    assert_eq!(data.completed.len(), 3, "SIGKILL lost at most one job");

    // Resume into a fresh journal.
    let resumed_path = scratch("resumed.jsonl");
    let writer = Mutex::new(JournalWriter::create(&resumed_path, &header).unwrap());
    let resumed = run_batch_resumable(
        &jobs,
        &opts,
        &ShutdownHandles::new(),
        Some(&writer),
        Some(&data.completed),
    );
    drop(writer);

    assert_eq!(resumed.counters.jobs_resumed, 3);
    assert_eq!(
        resumed.counters.jobs_completed, reference.counters.jobs_completed,
        "aggregate counters cover resumed and re-run jobs alike"
    );
    assert_eq!(resumed.counters.verified_ok, reference.counters.verified_ok);
    assert_eq!(
        resumed.results_jsonl(),
        reference.results_jsonl(),
        "a resumed batch's results stream is byte-identical"
    );
    // The new journal holds only the re-run jobs — proof the resumed
    // three were skipped, not re-synthesized.
    let rerun = read_journal(&resumed_path).unwrap();
    assert_eq!(rerun.completed.len(), 8 - 3);
    for i in 0..3 {
        assert!(
            !rerun.completed.contains_key(&i),
            "job {i} must not have re-run"
        );
    }
}

#[test]
fn resumed_records_serialize_without_index_but_journal_with() {
    let jobs = suite_admissions("examples").unwrap();
    let opts = BatchOptions::default();
    let header = JournalHeader::new(&jobs, &opts);
    let path = scratch("roundtrip.jsonl");
    let writer = Mutex::new(JournalWriter::create(&path, &header).unwrap());
    let run = run_batch_resumable(&jobs, &opts, &ShutdownHandles::new(), Some(&writer), None);
    drop(writer);
    let data = read_journal(&path).unwrap();
    let resumed = run_batch_resumable(
        &jobs,
        &opts,
        &ShutdownHandles::new(),
        None,
        Some(&data.completed),
    );
    assert_eq!(resumed.counters.jobs_resumed, 8);
    assert_eq!(resumed.results_jsonl(), run.results_jsonl());
    for (i, record) in resumed.records.iter().enumerate() {
        let indexed = record.to_json_indexed(i);
        assert_eq!(
            indexed.get("index").unwrap().as_u64(),
            Some(i as u64),
            "journal form keeps the index"
        );
        assert!(
            record.to_json().get("index").is_none(),
            "results form strips the index"
        );
    }
}

#[test]
fn resume_reruns_a_job_whose_journaled_circuit_is_damaged() {
    let jobs = suite_admissions("examples").unwrap();
    let opts = BatchOptions::default();
    let header = JournalHeader::new(&jobs, &opts);
    let path = scratch("damaged.jsonl");
    let writer = Mutex::new(JournalWriter::create(&path, &header).unwrap());
    let reference = run_batch_resumable(&jobs, &opts, &ShutdownHandles::new(), Some(&writer), None);
    drop(writer);

    // Move one wire of ex4's first gate, mid-journal: the record still
    // parses and its gate count and cost still match, so only
    // re-simulation can tell it is damaged.
    let text = std::fs::read_to_string(&path).unwrap();
    let damaged = text.replacen(r#""TOF2(c,a)""#, r#""TOF2(b,a)""#, 1);
    assert_ne!(damaged, text);
    std::fs::write(&path, damaged).unwrap();
    let data = read_journal(&path).unwrap();
    assert_eq!(data.completed.len(), 8, "the damaged line still parses");
    for (i, job) in &data.completed {
        let ex4 = jobs[*i].name() == "ex4";
        assert_eq!(journaled_record_holds(&jobs[*i], &job.json), !ex4);
    }

    let resumed = run_batch_resumable(
        &jobs,
        &opts,
        &ShutdownHandles::new(),
        None,
        Some(&data.completed),
    );
    assert_eq!(resumed.counters.jobs_resumed, 7, "the damaged job re-runs");
    assert_eq!(resumed.counters.verified_ok, reference.counters.verified_ok);
    assert_eq!(resumed.results_jsonl(), reference.results_jsonl());
}

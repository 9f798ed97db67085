//! Output digests recorded from this repository's own runs. Every served
//! body, figure CSV and cache key is contractually byte-identical across
//! commits, so a digest that stops matching is a behaviour change, not
//! noise.

/// Recorded SHA-256 digests the output checks compare against.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    /// `(figure id, digest of its smoke-fidelity CSV)`.
    pub figure_csv: &'static [(&'static str, &'static str)],
    /// Digest of each hot sweep response body, in hot-body order.
    pub serve_hot: &'static [&'static str],
}

impl Expected {
    pub fn figure_csv(&self, id: &str) -> Option<&'static str> {
        self.figure_csv
            .iter()
            .find(|(name, _)| *name == id)
            .map(|(_, digest)| *digest)
    }
}

#[rustfmt::skip]
pub const EXPECTED: Expected = Expected {
    figure_csv: &[
        ("fig04", "2caf210fe8b64ad3042751778e25ed091c1c3d77927c15cdba05d19d5a55123b"),
        ("fig05", "3bbfa9a67aaa92f1cde93fc788d26eaa18c97c45e992ca0b3724aa982f9adb83"),
        ("fig06", "2aa651e0d3cfe0b277ccb0973211fb94e8cce0b9e805133c133ee66ecb5ff2b8"),
        ("fig07", "4d6ffe786b6bf0ce39a62559a35b488924acba551470971a0fa6a89b8a99f0c6"),
        ("fig08", "d34b35cff645276c59e5f1b88218e95d2cc0c9b203983bdd201c1bd52da00451"),
        ("fig09", "b11167b8db458b25a657bc75d09615b050d0eca3cc1fa754dc92614c55727f5d"),
        ("fig10", "e13e61ba9dbd59fde3e1c8b8833999a2a144377c0f37602414c157a97e3e2926"),
        ("fig11", "1c473e948e009d0117350b76754691b3b840a2e47e6ef2c37d8bf9b1973aba7b"),
        ("fig12", "c8031de69d923bebb362da433af160eb78532141863bd533d424459d6e5c877e"),
        ("fig13", "3db822dbf42c274009b6f70116cb0b678b88a0c9c4a78a05c1e96db8f11d4570"),
        ("fig14", "50d5c34b991a9e2b3e565f075cda31350cf74eb48027de9a202e90ebaf43f17d"),
        ("fig15", "b18087310e1beb79d5f43a3792839032ff0be9285b8fd3b86814d296daaebd3e"),
        ("fig16", "51f0d1e4602a9c80a3e6fff4da47818f1daca515a85117a2735ab1ef01f84c82"),
        ("fig17", "e941dcc4df0b86939722e0c0f5ccd66afa41bcfd952f274ae5eefd021eb7f679"),
    ],
    serve_hot: &[
        "e7e2e3bada96eb8f2b4e1e9b92373c88498d25c38d2148d2a29024359bd9069a",
        "3efaa76d201b3655fe39de3f406a0e16be413c13e32ae842ba235303987c4bdd",
        "2bbcb8ee0d3b74d0f0933b931300ca94c2ec94c0f71d2809e74d34194e8fddba",
        "adf7b06f40023847c6b1ec51b996661385e78de05e635a7eb837c9097cf441f2",
        "6a747a20c2c1955c91b92923aff02d0b396b5661c58811f4400cfaeb8cf45f33",
        "001e6da70c225bb749a7e4ae65e2770322797e65957111403204c3b02afdf4c3",
        "645aa9448462185168aee265c91bfc2ceb068ab0cd5b44521df3ea54c13ad9d4",
        "d26d279e565deadf01ce10e9882157af00e5976bea7ece7dc6103b8041e7b6bd",
        "9cbf177849504978097eff6fd488397d1d966b67a4e2313e8be2346fdaa86d2e",
        "a7d746ecc5bcc61043b5ce8cd8ad12a22a0b0e6120c328fbfaa9fd586d32c99c",
        "c3c5d97a624cc9d471af495f6875bf0a12c665bf5e5f5e76be11bad4e9a94042",
        "702ce444e3670ebedd7a4ea2e2c163645ec6d6c1d8be990eb44e16abdd563c87",
        "808c1b0fc73838e5630af9ed5d120050e411bc6688f1d413a170806590379446",
        "6eb783927cf77511ed93c1845cc9564cbd9dec07c72342e6a8eb1aebb70ba684",
        "3a548ae467fde2c0465a5c46dc1c0f63b92bcf9cf6a62a013abde25ca218e2c7",
        "0f4ddcb78dc3dc0427f233eacf09c7cdb89380d49b3aee5c9c529289e89addb9",
        "a37fe8b941e0b35d87fb4f0188fe70a10367bff6774c97be54b34504e871378d",
        "0825cb2fd562e9ef0fe46d7a6b374b87be6af775419533e610e614d36b76ece2",
        "323eeaf2a57ef1c1565f4d6a06dd48b657fa5762fb2694f60f28693eca36036c",
        "fbd0cc18daf2522904ca1a5e122ec72bb898b5eea1b10ef4090acfa4920c212e",
        "a57f3be976bbcc038dc8a68854621c0abbd6580865a4bc70103f2a23d8ab42c5",
        "5329e6b59f7aa23b9c2b59f4318d049c9edbbd1b1538a27870df6d757b4f55f2",
        "9bad6ca12d4f483353f204df9c382ec2d31cb686582e97fc0d361489c1c5c489",
        "5c2e6732d850dbb8ebb890ed6cf19a222b677397826705910560024a25059731",
        "b0c26e1a93ffed6cbba84ba484367c71bff497e37a9c5a51f2e3f13769cdec4f",
        "e24076f907e29858ab641f9ae8fd09c4a3aa2b3f67f7681558519c17e8c2ac8c",
        "dc57ae67d79791a7891ee2b0885d8c066d0ac1504137eb9c1fd84df0e460e57b",
        "13472efdaa179b0b47df874b4b31da59f0c8bdd2835d708797c7e308d854e732",
        "96ccc93ca18bb520529180e4d5c10579d0074e4f5c31eb052c60689175dbf663",
        "c3c3f6293a7d227b279a20947648e3cb7f65fa0adea808bfbf44b4f09ec4d116",
        "4b2b231fe7fa672dba6c8a680470ded38500b2b7433e4d171383eb8bd2bf9825",
        "b878f327bc442117cea6339e7225808362e682d42c7250289d4bc96bdf850457",
    ],
};

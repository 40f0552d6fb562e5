let build rng rings = Nd_chord.build_canonical rng rings
